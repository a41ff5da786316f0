package bullet_test

import (
	"runtime"
	"testing"

	"bullet"
)

// maxDeployBytesPerParticipant bounds the live heap one Bullet
// participant holds right after Deploy, on deployBytesShape. Measured
// at 12,822 B on linux/amd64 with go1.24 (21,119 B while every node and
// every RanSub agent still built its ~4.9 KB random stream at deploy);
// the bound adds 10% for allocator and toolchain drift. It may only
// move down: a cut that lands lowers it to the new measurement plus the
// same margin.
const maxDeployBytesPerParticipant = 14_100

// deployBytesShape is a small bullet-wide: degree 10, one participant
// in twenty nodes.
var deployBytesShape = bullet.WorldConfig{TotalNodes: 4000, Clients: 200, Seed: 5}

// liveHeap returns the bytes of live heap objects after a full
// collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeployBytesPerParticipant pins the per-participant state Bullet
// builds at deploy: nodes, endpoints, flows, RanSub agents, filters,
// tickets and their random streams. It runs under -short too.
func TestDeployBytesPerParticipant(t *testing.T) {
	w, err := bullet.NewWorld(deployBytesShape)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.RandomTree(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bullet.DefaultConfig(600)
	before := liveHeap()
	d, err := w.Deploy(bullet.BulletProtocol{Config: cfg}, tree)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(w)
	runtime.KeepAlive(d)
	n := uint64(len(tree.Participants))
	per := (after - before) / n
	t.Logf("%d participants: %d B live heap per participant after Deploy", n, per)
	if per > maxDeployBytesPerParticipant {
		t.Fatalf("Deploy holds %d B per participant, bound %d B", per, maxDeployBytesPerParticipant)
	}
}
