// Package verify is the static routing certifier: one exhaustive traversal
// of the (node, destination, tag) state space that proves, before a single
// cycle is simulated, that the routing function installed on a built
// system is deadlock-free, totally reachable, livelock-free and
// VC-disciplined — and that, from the same traversal, feeds the compiled
// per-router routing tables of internal/routing.
//
// The deadlock obligation implements Duato's criterion for virtual
// cut-through switching: a routing function is deadlock-free if its escape
// sub-network C1 — the channels supplied by the escape function — has an
// acyclic extended channel dependency graph. "Extended" means the
// dependency c -> c' is recorded whenever any packet can occupy c (however
// it got there, including via adaptive hops) and its escape function
// supplies c' next; under virtual cut-through a packet holds exactly one
// buffer while requesting the next, so only these direct dependencies
// matter.
//
// The analyzer enumerates routing behavior exhaustively per (destination,
// interleave tag) round in two global passes over all rounds. Tags are
// reduced to equivalence classes first: every tag use in the routing layer
// goes through interleave.Index (tag modulo the group membership size, with
// the core-reachability rule shrinking the modulus by one), so TagClasses
// rounds cover every distinguishable behavior exactly.
//
//  1. a link-level BFS from every injection point over the routing
//     function's candidate sets discovers the reachable states; the escape
//     step of each reachable state contributes its target channel to C1.
//     The same pass checks full reachability (every source reaches the
//     destination in the candidate graph), escape completeness,
//     termination and VC monotonicity of the escape walks (Duato mode),
//     livelock freedom (the adaptive candidate sub-graph of each round
//     must be acyclic, yielding a certified adaptive hop bound), dead-end
//     states, and VC-range discipline. When Options.Sink is set, every
//     visited state's raw candidate set is also streamed out — this is how
//     routing.Compile obtains certified tables from the same traversal.
//  2. dependency edges are emitted against the now-complete C1. Under
//     Duato's protocol the extended rule applies: the BFS re-runs, and
//     every candidate channel that lies in C1 can be occupied and depends
//     on the occupant's next escape channel at the far node. Under the
//     safe/unsafe flow control the escape network is not a reserved
//     resource class, so the analysis certifies the minus-first structure
//     itself (Theorem 1's object, which Definition 4's safety argument
//     relies on): edges chain the consecutive channels of each pure
//     minus-first walk from an injection core to the destination.
//
// Injection channels belong to C1 but no link channel ever feeds them, so
// they cannot participate in a cycle and are left out of the graph.
//
// The verdict is a structured Report carrying concrete witnesses (in
// deterministic sorted order) when any proof obligation fails, and an
// exportable content-addressable Certificate when all of them hold.
package verify

import (
	"fmt"
	"sort"

	"chipletnet/internal/packet"
	"chipletnet/internal/router"
	"chipletnet/internal/topology"
)

// EscapeAnalyzer is the interface a routing implementation must expose, on
// top of router.Routing, to be statically analyzable. Both routing
// families in internal/routing (MFR and the flat-mesh NFR baseline)
// implement it.
type EscapeAnalyzer interface {
	router.Routing
	// EscapeStep returns the escape next hop and VC for packet p at node
	// v, or ok=false from states with no escape continuation. It must be
	// side-effect free and must not panic on reachable states.
	EscapeStep(v int, p *packet.Packet) (next, vc int, ok bool)
	// EscapeRequired reports whether deadlock freedom relies on the
	// escape sub-network (Duato's protocol) rather than on flow control.
	EscapeRequired() bool
}

// RawCandidater exposes a routing function's candidate set before any
// credit-based runtime reordering: the same candidates router.Routing's
// Candidates yields, in generation order, plus the count of leading
// candidates the lookup reorders by live credit score. A routing
// implementation must expose it for its tables to be compilable
// (routing.Compile): the stored set plus the re-sortable prefix length is
// exactly what reproduces Candidates bit-for-bit at lookup time.
type RawCandidater interface {
	RawCandidates(r *router.Router, p *packet.Packet, buf []router.Candidate) ([]router.Candidate, int)
}

// StateSink receives every routing state the certifying traversal visits:
// node holds a packet for destination dst with interleave-tag class tag
// (in [0, TagClasses)), and the routing function offers the raw candidate
// set cands of which the first nsort are credit-sortable. The cands slice
// is reused across calls — implementations must copy what they keep.
// Ejection states (node == dst) are not streamed.
type StateSink interface {
	State(node, dst, tag int, cands []router.Candidate, nsort int)
}

// Options tunes analysis cost. The zero value analyzes everything.
type Options struct {
	// MaxDests bounds the analyzed destination cores (0 = all).
	// Destinations are sampled evenly across the core list, preserving
	// chiplet coverage.
	MaxDests int
	// MaxSources bounds the escape-walk sources per destination (0 =
	// all). Candidate-graph reachability always covers every source.
	MaxSources int
	// MaxWitnesses caps recorded findings per category (default 8).
	MaxWitnesses int
	// Sink, when non-nil, receives every visited routing state with its
	// raw candidate set (see StateSink). Requires the routing to implement
	// RawCandidater; the analysis reports Unsupported otherwise. Combine
	// with zero MaxDests/MaxSources for complete tables.
	Sink StateSink
}

// Run statically analyzes the routing installed on sys.Fabric and returns
// the structured verdict. The system must be built but not yet simulated;
// the analysis only reads routing state and does not mutate the fabric.
// Panics escaping the routing function are recovered into Report.Panic.
func Run(sys *topology.System, opt Options) (rep *Report) {
	rep = &Report{Topology: sys.Kind.String()}
	if opt.MaxWitnesses <= 0 {
		opt.MaxWitnesses = 8
	}
	defer func() {
		if p := recover(); p != nil {
			rep.Panic = fmt.Sprint(p)
		}
	}()
	if sys.Fabric == nil || sys.Fabric.Routing == nil {
		rep.Unsupported = "system has no routing installed (build it first)"
		return rep
	}
	rt, ok := sys.Fabric.Routing.(EscapeAnalyzer)
	if !ok {
		rep.Unsupported = fmt.Sprintf("routing %T does not expose EscapeStep for static analysis", sys.Fabric.Routing)
		return rep
	}
	raw, _ := sys.Fabric.Routing.(RawCandidater)
	if opt.Sink != nil && raw == nil {
		rep.Unsupported = fmt.Sprintf("routing %T does not expose RawCandidates for table compilation", sys.Fabric.Routing)
		return rep
	}
	a := &analyzer{
		sys:     sys,
		rt:      rt,
		raw:     raw,
		opt:     opt,
		rep:     rep,
		routers: make([]*router.Router, len(sys.Nodes)),
		dests:   sampleInts(sys.Cores, opt.MaxDests),
		sources: sampleInts(sys.Cores, opt.MaxSources),
		tags:    tagSet(sys),
	}
	for _, r := range sys.Fabric.Routers {
		a.routers[r.Node] = r
	}
	a.buildChannels()
	rep.EscapeRequired = rt.EscapeRequired()
	rep.Dests, rep.Tags = len(a.dests), len(a.tags)

	// Pass 1: reachable states, C1, reachability and discipline checks.
	for _, dst := range a.dests {
		for _, tag := range a.tags {
			a.round(dst, tag, false)
		}
	}
	// Pass 2: dependency edges against the now-complete C1.
	for _, dst := range a.dests {
		for _, tag := range a.tags {
			if rep.EscapeRequired {
				a.round(dst, tag, true)
			} else {
				a.emitWalkDeps(dst, tag)
			}
		}
	}
	rep.EscapeChannels = a.c1Count
	rep.DepEdges = len(a.deps)
	a.findCycle()
	a.finalize()
	return rep
}

type analyzer struct {
	sys     *topology.System
	rt      EscapeAnalyzer
	raw     RawCandidater // nil when the routing has no raw accessor
	opt     Options
	rep     *Report
	routers []*router.Router // indexed by global node id

	dests, sources, tags []int

	// Channels have dense ids, built once per Run: node v's distinct
	// out-links are [linkStart[v], linkStart[v+1]), link l leads from
	// linkFrom[l] to linkTo[l], and channel (l, vc) is l*vcSpan + vc.
	// A channel outside that table (a VC beyond vcSpan, or a next hop that
	// is no neighbor, from a defective routing function) gets an id past
	// dense through extra, so every channel the analysis meets has one.
	vcSpan           int
	linkStart        []int32
	linkFrom, linkTo []int32
	dense            int
	extra            map[Channel]int32
	extraChans       []Channel

	// c1 is the escape sub-network: every channel some escape step targets.
	c1      []bool
	c1Count int
	// deps holds the CDG's edges, each with its first inducing (dst, tag),
	// chained per source channel c in insertion order from first[c] to
	// last[c] (-1 = none); order lists the source channels in
	// first-insertion order so cycle detection is deterministic.
	deps        []dep
	first, last []int32
	order       []int32

	// esc memoizes EscapeStep per round: esc[v] is valid while
	// esc[v].epoch == epoch, and every round starts a new epoch.
	epoch uint32
	esc   []escMemo

	// per-round scratch
	queue   []int
	visited []bool
	mark    []bool
	// The round's candidate edges as (from, to) pairs, then grouped by
	// from (see csr): reverse edges for reachability and forward
	// adaptive-only edges for livelock.
	redges, rstart, radj []int32
	aedges, astart, aadj []int32
	acolor               []int8
	adepth               []int32
	stack, cycle         []int
	cands                []router.Candidate
}

// dep is one CDG edge out of a channel: the target channel id, the first
// (destination, tag) round that induced it, and the source channel's next
// edge (-1 = last).
type dep struct{ to, dst, tag, next int32 }

// escMemo is one memoized EscapeStep result; ch is the id of the channel
// (v, next, vc) it targets.
type escMemo struct {
	epoch    uint32
	ok       bool
	next, vc int
	ch       int32
}

// buildChannels assigns the dense channel ids: one block of vcSpan ids
// per distinct (node, neighbor) out-link, in node and port order.
func (a *analyzer) buildChannels() {
	n := len(a.sys.Nodes)
	a.vcSpan = a.sys.LP.VCs
	for _, r := range a.routers {
		for _, o := range r.Out {
			if o.Link != nil && len(o.Credits) > a.vcSpan {
				a.vcSpan = len(o.Credits)
			}
		}
	}
	a.linkStart = make([]int32, n+1)
	for v, r := range a.routers {
		a.linkStart[v+1] = a.linkStart[v]
		for _, o := range r.Out {
			if o.Link != nil && a.link(v, o.Link.Dst.Node) < 0 {
				a.linkFrom = append(a.linkFrom, int32(v))
				a.linkTo = append(a.linkTo, int32(o.Link.Dst.Node))
				a.linkStart[v+1]++
			}
		}
	}
	a.dense = len(a.linkTo) * a.vcSpan
	a.c1 = make([]bool, a.dense)
	a.first = make([]int32, a.dense)
	a.last = make([]int32, a.dense)
	for i := range a.first {
		a.first[i], a.last[i] = -1, -1
	}
	a.esc = make([]escMemo, n)
}

// link returns the index of the out-link from v to node to, or -1. Node
// degrees are small, so a linear scan beats any index.
func (a *analyzer) link(v, to int) int {
	for l := a.linkStart[v]; l < a.linkStart[v+1]; l++ {
		if int(a.linkTo[l]) == to {
			return int(l)
		}
	}
	return -1
}

// chanID returns the id of channel (from, to, vc).
func (a *analyzer) chanID(from, to, vc int) int32 {
	if vc >= 0 && vc < a.vcSpan {
		if l := a.link(from, to); l >= 0 {
			return int32(l*a.vcSpan + vc)
		}
	}
	ch := Channel{from, to, vc}
	if id, ok := a.extra[ch]; ok {
		return id
	}
	if a.extra == nil {
		a.extra = make(map[Channel]int32)
	}
	id := int32(a.dense + len(a.extraChans))
	a.extra[ch] = id
	a.extraChans = append(a.extraChans, ch)
	a.c1 = append(a.c1, false)
	a.first = append(a.first, -1)
	a.last = append(a.last, -1)
	return id
}

// channel maps an id back to its channel.
func (a *analyzer) channel(id int32) Channel {
	if int(id) >= a.dense {
		return a.extraChans[int(id)-a.dense]
	}
	l := int(id) / a.vcSpan
	return Channel{From: int(a.linkFrom[l]), To: int(a.linkTo[l]), VC: int(id) % a.vcSpan}
}

// newRound starts a (destination, tag) round: it invalidates the escape
// memo, which holds only within one round.
func (a *analyzer) newRound() {
	if a.epoch++; a.epoch == 0 {
		clear(a.esc)
		a.epoch = 1
	}
}

// escape returns the memoized EscapeStep(v, p) of the current round. For a
// fixed (destination, tag) the escape step is a pure function of the node
// (the EscapeAnalyzer contract), so only the first call per node asks the
// routing function.
func (a *analyzer) escape(v int, p *packet.Packet) *escMemo {
	e := &a.esc[v]
	if e.epoch != a.epoch {
		next, vc, ok := a.rt.EscapeStep(v, p)
		*e = escMemo{epoch: a.epoch, ok: ok, next: next, vc: vc}
		if ok {
			e.ch = a.chanID(v, next, vc)
		}
	}
	return e
}

func (a *analyzer) markC1(ch int32) {
	if !a.c1[ch] {
		a.c1[ch] = true
		a.c1Count++
	}
}

// round runs one (destination, tag) analysis round: a BFS over the
// candidate graph from every injection point. With emit=false it grows C1
// and runs the per-round checks; with emit=true it emits CDG edges.
func (a *analyzer) round(dst, tag int, emit bool) {
	p := &packet.Packet{Src: -1, Dst: dst, Tag: tag, Len: 1}
	n := len(a.sys.Nodes)
	if a.visited == nil {
		a.visited = make([]bool, n)
		a.mark = make([]bool, n)
		a.acolor = make([]int8, n)
		a.adepth = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		a.visited[i] = false
	}
	a.redges, a.aedges = a.redges[:0], a.aedges[:0]
	a.newRound()
	queue := a.queue[:0]
	for _, src := range a.sys.Cores {
		if !a.visited[src] {
			a.visited[src] = true
			queue = append(queue, src)
		}
	}
	vcs := a.sys.LP.VCs
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v == dst {
			continue // delivered: no further channel requests
		}
		r := a.routers[v]
		nsort := 0
		if a.raw != nil {
			a.cands, nsort = a.raw.RawCandidates(r, p, a.cands[:0])
		} else {
			a.cands = a.rt.Candidates(r, 0, p, a.cands[:0])
		}
		if len(a.cands) == 0 {
			if !emit {
				a.addDeadEnd(StateRef{v, dst, tag})
			}
			continue
		}
		if !emit {
			a.rep.States++
			if a.opt.Sink != nil {
				a.opt.Sink.State(v, dst, tag, a.cands, nsort)
			}
			if e := a.escape(v, p); e.ok {
				if e.vc < 0 || e.vc >= vcs {
					a.addVCViolation(fmt.Sprintf("escape VC %d outside [0,%d) at %v",
						e.vc, vcs, StateRef{v, dst, tag}))
				} else {
					a.markC1(e.ch)
				}
			} else if a.rep.EscapeRequired {
				a.addMissingEscape(StateRef{v, dst, tag})
			}
		}
		for _, c := range a.cands {
			o := r.Out[c.Port]
			if o.Link == nil {
				if !emit {
					a.addVCViolation(fmt.Sprintf("ejection candidate away from destination at %v",
						StateRef{v, dst, tag}))
				}
				continue
			}
			to := o.Link.Dst.Node
			mask := c.VCMask
			if excess := mask &^ router.VCMaskAll(len(o.Credits)); excess != 0 {
				if !emit {
					a.addVCViolation(fmt.Sprintf("candidate VC mask %#x exceeds the %d downstream VCs at %v",
						c.VCMask, len(o.Credits), StateRef{v, dst, tag}))
				}
				mask &= router.VCMaskAll(len(o.Credits))
			}
			if emit && a.rep.EscapeRequired && to != dst {
				// Extended CDG: the packet can occupy any candidate
				// channel; from an escape channel its next request is
				// its escape continuation at the far node.
				if e := a.escape(to, p); e.ok && e.vc >= 0 && e.vc < vcs {
					base := int32(a.link(v, to) * a.vcSpan)
					for vc := 0; vc < len(o.Credits); vc++ {
						if mask&(1<<uint(vc)) == 0 {
							continue
						}
						if ch := base + int32(vc); a.c1[ch] {
							a.addDep(ch, e.ch, dst, tag)
						}
					}
				}
			}
			if !emit {
				a.redges = append(a.redges, int32(to), int32(v))
				if !c.Escape {
					a.aedges = append(a.aedges, int32(v), int32(to))
				}
			}
			if !a.visited[to] {
				a.visited[to] = true
				queue = append(queue, to)
			}
		}
	}
	a.queue = queue
	if emit {
		return
	}
	a.rstart, a.radj = csr(n, a.redges, a.rstart, a.radj)
	a.astart, a.aadj = csr(n, a.aedges, a.astart, a.aadj)
	a.checkReach(dst, tag)
	a.checkLivelock(dst, tag)
	if a.rep.EscapeRequired {
		a.checkEscapeWalk(dst, tag, p)
	}
}

// checkReach verifies every core can reach dst in the candidate graph, via
// a reverse BFS from dst over the reverse adjacency the round recorded.
func (a *analyzer) checkReach(dst, tag int) {
	n := len(a.sys.Nodes)
	for i := 0; i < n; i++ {
		a.mark[i] = false
	}
	a.mark[dst] = true
	queue := append(a.queue[:0], dst)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, u := range a.radj[a.rstart[x]:a.rstart[x+1]] {
			if !a.mark[u] {
				a.mark[u] = true
				queue = append(queue, int(u))
			}
		}
	}
	a.queue = queue
	for _, src := range a.sys.Cores {
		if src != dst && !a.mark[src] {
			a.addUnreach(ReachFailure{Src: src, Dst: dst, Tag: tag,
				Reason: "no admissible candidate path"})
		}
	}
}

// checkLivelock proves livelock freedom of one round: the adaptive
// (non-escape) candidate sub-graph must be acyclic, so any run of
// consecutive adaptive hops is bounded by its longest path. A cycle is a
// non-progress witness — adaptive candidates could forward a packet around
// it forever. Escape candidates are excluded: their progress is certified
// by checkEscapeWalk's termination bound, and a packet alternating between
// the two networks still terminates because every adaptive placement
// re-offers the terminating escape continuation.
func (a *analyzer) checkLivelock(dst, tag int) {
	n := len(a.sys.Nodes)
	for i := 0; i < n; i++ {
		a.acolor[i] = 0
		a.adepth[i] = 0
	}
	a.stack, a.cycle = a.stack[:0], a.cycle[:0]
	for v := 0; v < n; v++ {
		if a.acolor[v] != 0 || a.astart[v] == a.astart[v+1] {
			continue
		}
		if a.livelockDFS(v) {
			a.addLivelock(LivelockCycle{Dst: dst, Tag: tag, Nodes: rotateMin(a.cycle)})
			return // one witness per round
		}
		if d := int(a.adepth[v]); d > a.rep.AdaptiveHopBound {
			a.rep.AdaptiveHopBound = d
		}
	}
}

// livelockDFS colors the adaptive graph from v, recording each finished
// node's longest adaptive path in adepth; on a back edge it stores the
// cycle in a.cycle and reports true.
func (a *analyzer) livelockDFS(v int) bool {
	a.acolor[v] = 1
	a.stack = append(a.stack, v)
	best := int32(0)
	for _, to := range a.aadj[a.astart[v]:a.astart[v+1]] {
		switch a.acolor[to] {
		case 1:
			i := len(a.stack) - 1
			for i > 0 && a.stack[i] != int(to) {
				i--
			}
			a.cycle = append(a.cycle, a.stack[i:]...)
			return true
		case 0:
			if a.livelockDFS(int(to)) {
				return true
			}
		}
		if d := a.adepth[to] + 1; d > best {
			best = d
		}
	}
	a.stack = a.stack[:len(a.stack)-1]
	a.acolor[v] = 2
	a.adepth[v] = best
	return false
}

// csr groups the (from, to) pairs of edges by from, keeping insertion
// order within each group: node v's targets become adj[start[v]:start[v+1]].
// start and adj are reused scratch.
func csr(n int, edges, start, adj []int32) ([]int32, []int32) {
	start = append(start[:0], make([]int32, n+1)...)
	for i := 0; i < len(edges); i += 2 {
		start[edges[i]+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	adj = append(adj[:0], make([]int32, len(edges)/2)...)
	for i := 0; i < len(edges); i += 2 {
		from := edges[i]
		adj[start[from]] = edges[i+1]
		start[from]++
	}
	// The fill advanced each start[v] to its group's end, which is
	// start[v+1] before the fill; shift back.
	copy(start[1:], start[:n])
	start[0] = 0
	return start, adj
}

// rotateMin rotates a cycle in place so the smallest node id leads,
// making witnesses independent of the DFS entry point.
func rotateMin(cycle []int) []int {
	if len(cycle) == 0 {
		return cycle
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[min:]...)
	return append(out, cycle[:min]...)
}

// checkEscapeWalk verifies the escape function alone delivers every packet
// (termination, hence the escape sub-network's own livelock freedom),
// records the longest walk as the certified escape hop bound, and checks
// Theorem 1's VC discipline along the way: within one chiplet the escape
// VC class must be non-decreasing (a packet may climb from the d- class to
// the d+ class but never back), with the cross-chiplet hop resetting the
// ordering for the next chiplet.
func (a *analyzer) checkEscapeWalk(dst, tag int, p *packet.Packet) {
	bound := 4 * len(a.sys.Nodes)
	for _, src := range a.sources {
		if src == dst {
			continue
		}
		v, done := src, false
		steps, prevVC, checkVC := 0, -1, true
		for step := 0; step <= bound; step++ {
			if v == dst {
				done = true
				break
			}
			e := a.escape(v, p)
			if !e.ok {
				break
			}
			if checkVC && prevVC >= 0 && e.vc < prevVC {
				a.addVCViolation(fmt.Sprintf("escape VC class not monotone within chiplet: vc%d after vc%d at %v",
					e.vc, prevVC, StateRef{v, dst, tag}))
				checkVC = false
			}
			if a.sys.Nodes[v].Chiplet != a.sys.Nodes[e.next].Chiplet {
				prevVC = -1
			} else {
				prevVC = e.vc
			}
			v = e.next
			steps++
		}
		if !done {
			a.addUnreach(ReachFailure{Src: src, Dst: dst, Tag: tag,
				Reason: fmt.Sprintf("escape walk does not terminate (stuck near node %d)", v)})
		} else if steps > a.rep.EscapeHopBound {
			a.rep.EscapeHopBound = steps
		}
	}
}

// emitWalkDeps emits the safe/unsafe-mode CDG edges for one (destination,
// tag) round: the consecutive-channel dependencies of every pure
// minus-first walk from an injection core to the destination. Adaptive
// placements are deliberately excluded — under the safe/unsafe flow
// control packets off the minus-first structure are throttled by
// Algorithm 5, not by channel ordering, so only the structure's own
// acyclicity is the certifiable property.
func (a *analyzer) emitWalkDeps(dst, tag int) {
	p := &packet.Packet{Src: -1, Dst: dst, Tag: tag, Len: 1}
	a.newRound()
	bound := 4 * len(a.sys.Nodes)
	for _, src := range a.sys.Cores {
		if src == dst {
			continue
		}
		v := src
		prev := int32(-1)
		steps, prevVC, checkVC := 0, -1, true
		for step := 0; step <= bound && v != dst; step++ {
			e := a.escape(v, p)
			if !e.ok {
				break
			}
			if checkVC && prevVC >= 0 && e.vc < prevVC {
				a.addVCViolation(fmt.Sprintf("escape VC class not monotone within chiplet: vc%d after vc%d at %v",
					e.vc, prevVC, StateRef{v, dst, tag}))
				checkVC = false
			}
			if a.sys.Nodes[v].Chiplet != a.sys.Nodes[e.next].Chiplet {
				prevVC = -1
			} else {
				prevVC = e.vc
			}
			if prev >= 0 {
				a.addDep(prev, e.ch, dst, tag)
			}
			prev = e.ch
			v = e.next
			steps++
		}
		if v == dst && steps > a.rep.EscapeHopBound {
			a.rep.EscapeHopBound = steps
		}
	}
}

// addDep records the CDG edge from -> to unless present, keeping its first
// inducing (dst, tag). Channel out-degrees are small (the escape channels
// of one far node), so the duplicate check is a linear scan.
func (a *analyzer) addDep(from, to int32, dst, tag int) {
	for e := a.first[from]; e >= 0; e = a.deps[e].next {
		if a.deps[e].to == to {
			return
		}
	}
	id := int32(len(a.deps))
	a.deps = append(a.deps, dep{to: to, dst: int32(dst), tag: int32(tag), next: -1})
	if a.last[from] < 0 {
		a.first[from] = id
		a.order = append(a.order, from)
	} else {
		a.deps[a.last[from]].next = id
	}
	a.last[from] = id
}

// findCycle runs a deterministic DFS (roots in first-insertion order) over
// the CDG and records the first cycle found as the witness.
func (a *analyzer) findCycle() {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(a.first))
	var stack []int32
	var cycle []int32
	var dfs func(c int32) bool
	dfs = func(c int32) bool {
		color[c] = gray
		stack = append(stack, c)
		for e := a.first[c]; e >= 0; e = a.deps[e].next {
			nx := a.deps[e].to
			switch color[nx] {
			case gray:
				i := len(stack) - 1
				for i > 0 && stack[i] != nx {
					i--
				}
				cycle = append(cycle, stack[i:]...)
				return true
			case white:
				if dfs(nx) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
		return false
	}
	for _, root := range a.order {
		if color[root] == white && dfs(root) {
			break
		}
	}
	for i := range cycle {
		from, to := cycle[i], cycle[(i+1)%len(cycle)]
		for e := a.first[from]; e >= 0; e = a.deps[e].next {
			if d := a.deps[e]; d.to == to {
				a.rep.Cycle = append(a.rep.Cycle, DepEdge{From: a.channel(from), To: a.channel(to),
					Dst: int(d.dst), Tag: int(d.tag)})
				break
			}
		}
	}
}

// room reports whether another finding may be recorded in a slice of the
// current length, counting overflow into Truncated.
func (a *analyzer) room(have int) bool {
	if have < a.opt.MaxWitnesses {
		return true
	}
	a.rep.Truncated++
	return false
}

func (a *analyzer) addDeadEnd(s StateRef) {
	if a.room(len(a.rep.DeadEnds)) {
		a.rep.DeadEnds = append(a.rep.DeadEnds, s)
	}
}

func (a *analyzer) addMissingEscape(s StateRef) {
	if a.room(len(a.rep.MissingEscape)) {
		a.rep.MissingEscape = append(a.rep.MissingEscape, s)
	}
}

func (a *analyzer) addUnreach(f ReachFailure) {
	if a.room(len(a.rep.Unreachable)) {
		a.rep.Unreachable = append(a.rep.Unreachable, f)
	}
}

func (a *analyzer) addVCViolation(msg string) {
	if a.room(len(a.rep.VCViolations)) {
		a.rep.VCViolations = append(a.rep.VCViolations, msg)
	}
}

func (a *analyzer) addLivelock(c LivelockCycle) {
	if a.room(len(a.rep.Livelock)) {
		a.rep.Livelock = append(a.rep.Livelock, c)
	}
}

// finalize puts every witness category into deterministic sorted order
// (stable diffs across runs regardless of discovery order) and rotates the
// CDG cycle witness to a canonical starting edge.
func (a *analyzer) finalize() {
	r := a.rep
	byState := func(s []StateRef) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Dst != s[j].Dst {
				return s[i].Dst < s[j].Dst
			}
			if s[i].Tag != s[j].Tag {
				return s[i].Tag < s[j].Tag
			}
			return s[i].Node < s[j].Node
		})
	}
	byState(r.MissingEscape)
	byState(r.DeadEnds)
	sort.Slice(r.Unreachable, func(i, j int) bool {
		a, b := r.Unreachable[i], r.Unreachable[j]
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Reason < b.Reason
	})
	sort.Slice(r.Livelock, func(i, j int) bool {
		a, b := r.Livelock[i], r.Livelock[j]
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		for k := 0; k < len(a.Nodes) && k < len(b.Nodes); k++ {
			if a.Nodes[k] != b.Nodes[k] {
				return a.Nodes[k] < b.Nodes[k]
			}
		}
		return len(a.Nodes) < len(b.Nodes)
	})
	sort.Strings(r.VCViolations)
	r.VCViolations = compactStrings(r.VCViolations)
	if len(r.Cycle) > 1 {
		min := 0
		for i := range r.Cycle {
			if depEdgeLess(r.Cycle[i], r.Cycle[min]) {
				min = i
			}
		}
		rotated := make([]DepEdge, 0, len(r.Cycle))
		rotated = append(rotated, r.Cycle[min:]...)
		r.Cycle = append(rotated, r.Cycle[:min]...)
	}
}

func compactStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func depEdgeLess(a, b DepEdge) bool {
	ka := [8]int{a.From.From, a.From.To, a.From.VC, a.To.From, a.To.To, a.To.VC, a.Dst, a.Tag}
	kb := [8]int{b.From.From, b.From.To, b.From.VC, b.To.From, b.To.To, b.To.VC, b.Dst, b.Tag}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

// TagClasses returns the number L of interleave-tag equivalence classes of
// sys: two tags t, t' with t ≡ t' (mod L) make identical routing decisions
// everywhere, so the traversal's tag rounds [0, L) cover every
// distinguishable behavior exactly (untagged packets, tag < 0, behave as
// class 0). Every tag use in the routing layer reduces the tag modulo a
// group membership size s (interleave.Index), except that the
// core-reachability rule can drop a group's position-0 leader and reduce
// modulo s-1 — so L is the lcm of s and s-1 over all current (and, under
// fault injection, pre-fault) group memberships.
func TagClasses(sys *topology.System) int {
	l := 1
	add := func(s int) {
		if s >= 2 {
			l = lcm(l, s)
		}
	}
	for _, ch := range sys.Chiplets {
		for _, g := range ch.Groups {
			add(len(g))
			add(len(g) - 1)
		}
	}
	for _, groups := range sys.BaseGroups {
		for _, g := range groups {
			add(len(g))
			add(len(g) - 1)
		}
	}
	return l
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tagSet returns one representative tag per equivalence class: [0, L).
func tagSet(sys *topology.System) []int {
	l := TagClasses(sys)
	tags := make([]int, l)
	for i := range tags {
		tags[i] = i
	}
	return tags
}

// sampleInts returns list when max is zero or not binding, else max
// entries sampled evenly (deterministically) across the list.
func sampleInts(list []int, max int) []int {
	if max <= 0 || len(list) <= max {
		return list
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, list[i*len(list)/max])
	}
	return out
}
