package topology

import (
	"fmt"

	"bullet/internal/sim"
)

// Builder assembles a hand-crafted topology, used for experiments that
// need precise control over structure and capacities (e.g. the
// PlanetLab-style constrained-root topology of §4.7).
type Builder struct {
	g   *Graph
	err error
}

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return &Builder{g: &Graph{}} }

// AddNode appends a node of the given kind at plane position (x, y)
// (in propagation milliseconds) and returns its ID.
func (b *Builder) AddNode(kind NodeKind, x, y float64) int {
	id := len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, Node{ID: id, Kind: kind, X: x, Y: y})
	if kind == Client {
		b.g.Clients = append(b.g.Clients, id)
	}
	return id
}

// AddLink connects a and b with the given class, capacity (Kbps),
// one-way propagation delay, and loss rate. It returns the link ID.
func (b *Builder) AddLink(a, c int, class LinkClass, kbps float64, delay sim.Duration, loss float64) int {
	if a < 0 || a >= len(b.g.Nodes) || c < 0 || c >= len(b.g.Nodes) {
		b.err = fmt.Errorf("topology: link endpoints %d-%d out of range", a, c)
		return -1
	}
	if kbps <= 0 || delay <= 0 || loss < 0 || loss > 1 {
		b.err = fmt.Errorf("topology: bad link parameters kbps=%v delay=%v loss=%v", kbps, delay, loss)
		return -1
	}
	id := len(b.g.Links)
	b.g.Links = append(b.g.Links, Link{
		ID: id, A: a, B: c, Class: class,
		Bytes: kbps * 1000 / 8, Delay: delay, Loss: loss,
	})
	return id
}

// Build finalizes the graph, rejecting one outside the transit-stub
// contract the router relies on (validateHier).
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.g.Nodes) == 0 {
		return nil, fmt.Errorf("topology: empty custom graph")
	}
	b.g.buildAdjacency()
	if err := validateHier(b.g); err != nil {
		return nil, err
	}
	return b.g, nil
}
