package experiments

import (
	"fmt"

	"bullet"
	"bullet/internal/metrics"
	"bullet/internal/sim"
	"bullet/internal/workload"
)

// Workload experiments: the same non-CBR workload — a fountain-coded
// file or a bursty VBR stream — disseminated by Bullet, the plain tree
// streamer, and push gossip, so the results differ only by protocol.
// This is the paper's §2.1 framing made runnable: the mesh is a data
// *dissemination* structure, not just a streaming one, and a finite
// file with completion semantics separates the protocols far more
// sharply than steady-state bandwidth does.

// workloadCompare deploys Bullet, the plain streamer, and push gossip
// as three arms in independent worlds built from the same seed
// (identical topologies, trees, and sources) with the identical
// workload, runs each to sc.RunUntil, and hands every finished run to
// report. src is shared by the three: the workloads compared here are
// stateless values.
func workloadCompare(sc Scale, seed int64, src workload.Source, report func(v *armRun)) error {
	bcfg := bulletConfig(sc, defaultRateKbps)
	bcfg.Workload = src
	scfg := streamConfig(sc, 0) // the workload sets the rate
	scfg.Workload = src
	return runArms(sc, seed, report,
		arm{label: "bullet", proto: bullet.BulletProtocol{Config: bcfg}},
		arm{label: "stream", proto: bullet.StreamerProtocol{Config: scfg}},
		arm{label: "gossip", tree: noTree, proto: bullet.GossipProtocol{Config: scfg}})
}

// fileWorkloadFor sizes the fountain-coded file to the scale: a
// quarter of the symbols the source emits over the stream duration, so
// a node at full stream rate completes early and stragglers still have
// the whole remaining stream to accumulate their (1+ε)k symbols.
func fileWorkloadFor(sc Scale) workload.File {
	pkts := sc.Duration.ToSeconds() * defaultRateKbps * 1000 / 8 / 1500
	k := int(pkts / 4)
	if k < 50 {
		k = 50
	}
	return workload.File{RateKbps: defaultRateKbps, PacketSize: 1500, K: k}
}

// FileDistCompare is the file-distribution shoot-out: the identical
// fountain-coded file (stream sequence = encoded-symbol ID, node done
// at (1+ε)k distinct receipts) disseminated by Bullet, the plain tree
// streamer, and push gossip. The result carries each variant's
// completion fraction and median time-to-finish, Bullet's full
// per-node completion CDF, and the head-to-head fraction of nodes
// Bullet finishes before the streamer — the headline the regression
// test pins at ≥95%.
func FileDistCompare(sc Scale, seed int64) (*Result, error) {
	wl := fileWorkloadFor(sc)
	r := newResult(fmt.Sprintf("File distribution: %d-block fountain-coded file, Bullet vs streamer vs gossip", wl.K))
	r.Summary["file_k"] = float64(wl.K)
	r.Summary["completion_target_pkts"] = float64(wl.Target())

	cols := make(map[string]*metrics.Collector)
	var clients []int
	err := workloadCompare(sc, seed, wl,
		func(v *armRun) {
			label, col := v.label, v.col
			cols[label] = col
			clients = v.w.Participants() // identical across same-seed worlds
			r.addSeries(label+"_useful", col.Series(metrics.Useful))
			cdf := col.CompletionCDF()
			// The source node never receives, so it is absent from the
			// CDF; fractions are over the receivers.
			receivers := len(clients) - 1
			r.Summary[label+"_completed_frac"] = float64(len(cdf)) / float64(receivers)
			if len(cdf) > 0 {
				r.Summary[label+"_median_completion_s"] = cdf[len(cdf)/2]
				r.Summary[label+"_last_completion_s"] = cdf[len(cdf)-1]
			}
		})
	if err != nil {
		return nil, err
	}
	r.CDF = cols["bullet"].CompletionCDF()
	r.Notes = append(r.Notes, "CDF block: Bullet per-node completion times (seconds)")

	// Head-to-head per node: Bullet "wins" a node when it completes
	// the file there and the rival either never does or does later.
	beats := func(a, b *metrics.Collector) float64 {
		wins, n := 0, 0
		for _, node := range clients {
			if node == clients[0] {
				continue // the source
			}
			n++
			at, ok := a.CompletionTime(node)
			bt, bok := b.CompletionTime(node)
			if ok && (!bok || at < bt) {
				wins++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(wins) / float64(n)
	}
	r.Summary["bullet_first_frac"] = beats(cols["bullet"], cols["stream"])
	r.Summary["bullet_before_gossip_frac"] = beats(cols["bullet"], cols["gossip"])
	return r, nil
}

// vbrPhaseMeans splits a variant's per-bucket useful-bandwidth series
// into the workload's on- and off-phases and returns each phase's mean
// Kbps. The first cycle is skipped (slow-start ramp) and measurement
// stops at the stream end.
func vbrPhaseMeans(col *metrics.Collector, sc Scale, wl workload.VBR) (on, off float64) {
	periodSec := wl.Period.ToSeconds()
	onLen := periodSec * wl.Duty
	startSec := sc.Start.ToSeconds()
	endSec := (sc.Start + sc.Duration).ToSeconds()
	var onSum, offSum float64
	var onN, offN int
	for _, p := range col.Series(metrics.Useful) {
		if p.T < startSec+periodSec || p.T >= endSec {
			continue
		}
		pos := p.T - startSec
		for pos >= periodSec {
			pos -= periodSec
		}
		if pos < onLen {
			onSum += p.Kbps
			onN++
		} else {
			offSum += p.Kbps
			offN++
		}
	}
	if onN > 0 {
		on = onSum / float64(onN)
	}
	if offN > 0 {
		off = offSum / float64(offN)
	}
	return on, off
}

// VBRStream is the bursty-source shoot-out: an on/off variable-bit-rate
// stream (900 Kbps bursts, 150 Kbps troughs, five cycles over the
// stream) disseminated by Bullet, the plain streamer, and push gossip
// under identical conditions. Summaries report each variant's
// on-phase and off-phase delivered bandwidth: the interesting question
// is who actually sustains the bursts.
func VBRStream(sc Scale, seed int64) (*Result, error) {
	wl := workload.VBR{
		HighKbps: 900, LowKbps: 150, PacketSize: 1500,
		Period: sc.Duration / 5, Duty: 0.5, Phase: sc.Start,
	}
	r := newResult("VBR streaming: on/off bursty source, Bullet vs streamer vs gossip")
	r.Summary["vbr_high_kbps"] = wl.HighKbps
	r.Summary["vbr_low_kbps"] = wl.LowKbps
	r.Summary["vbr_period_s"] = wl.Period.ToSeconds()
	err := workloadCompare(sc, seed, wl,
		func(v *armRun) {
			label, col := v.label, v.col
			r.addSeries(label+"_useful", col.Series(metrics.Useful))
			on, off := vbrPhaseMeans(col, sc, wl)
			r.Summary[label+"_on_kbps"] = on
			r.Summary[label+"_off_kbps"] = off
			r.Summary[label+"_overall_kbps"] = col.MeanOver(sc.Start+10*sim.Second, sc.RunUntil, metrics.Useful)
			r.Summary[label+"_dup_ratio"] = col.DuplicateRatio()
		})
	if err != nil {
		return nil, err
	}
	return r, nil
}
