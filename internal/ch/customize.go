package ch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/fed"
	"repro/internal/graph"
	"repro/internal/mpc"
)

// Customize derives a query-ready index from a topology skeleton under the
// federation's CURRENT traffic weights with the default parameters.
func Customize(f *fed.Federation, sk *Skeleton) (*Index, error) {
	return CustomizeWith(f, sk, Params{})
}

// CustomizeWith is Customize with explicit parameters (Workers, NoBatch).
// Equivalent to NewCustomizer followed by Run.
func CustomizeWith(f *fed.Federation, sk *Skeleton, prm Params) (*Index, error) {
	c, err := NewCustomizer(f, sk, prm)
	if err != nil {
		return nil, err
	}
	return c.Run()
}

// Customizer splits weight customization into a snapshot phase and a work
// phase, mirroring Builder: NewCustomizer copies the silos' private base
// weights (the only read of mutable federation state) and forks one MPC
// engine per worker; Run performs the entire bottom-up sweep against that
// snapshot with no lock held. The fedroad layer customizes without blocking
// queries exactly the way it rebuilds.
type Customizer struct {
	f       *fed.Federation
	sk      *Skeleton
	prm     Params
	x       *Index
	workers []*fed.Federation
	sacs    []*fed.SAC
	ran     bool
}

// NewCustomizer validates that the skeleton fits the federation's graph and
// snapshots the base-arc partial weights.
func NewCustomizer(f *fed.Federation, sk *Skeleton, prm Params) (*Customizer, error) {
	if sk == nil {
		return nil, fmt.Errorf("ch: customize without a skeleton")
	}
	g := f.Graph()
	if len(sk.rank) != g.NumVertices() || sk.numBase != g.NumArcs() {
		return nil, fmt.Errorf("ch: skeleton contracted a %d-vertex/%d-arc graph, federation serves %d/%d",
			len(sk.rank), sk.numBase, g.NumVertices(), g.NumArcs())
	}
	if prm.WitnessCap == 0 {
		prm.WitnessCap = DefaultWitnessCap
	}
	if prm.WitnessHops == 0 {
		prm.WitnessHops = DefaultWitnessHops
	}
	if prm.Workers <= 0 {
		prm.Workers = runtime.GOMAXPROCS(0)
	}
	m := len(sk.tail)
	p := f.P()
	x := &Index{
		f:    f,
		rank: sk.rank,
		// The topology arrays are shared with the skeleton: both are
		// immutable for a customized index (updates rebind children and
		// refresh weights in place, never append arcs).
		tail:        sk.tail,
		head:        sk.head,
		via:         sk.via,
		childA:      make([]int32, m),
		childB:      make([]int32, m),
		numBase:     sk.numBase,
		witnessCap:  prm.WitnessCap,
		witnessHops: prm.WitnessHops,
		noBatch:     prm.NoBatch,
		skel:        sk,
	}
	for a := range x.childA {
		x.childA[a], x.childB[a] = -1, -1
	}
	x.siloW = make([][]int64, p)
	for s := 0; s < p; s++ {
		ws := make([]int64, m)
		for a := 0; a < sk.numBase; a++ {
			ws[a] = f.Silo(s).Weight(graph.Arc(a))
		}
		x.siloW[s] = ws
	}
	c := &Customizer{f: f, sk: sk, prm: prm, x: x}
	for i := 0; i < prm.Workers; i++ {
		wf := f.Fork()
		c.workers = append(c.workers, wf)
		c.sacs = append(c.sacs, wf.NewSAC())
	}
	return c, nil
}

// Run executes the bottom-up customization sweep: per hierarchy level, first
// every shortcut at that level takes its weight from the already-decided
// winners of its two child pair groups (a pure local per-silo sum — no MPC),
// then the tournaments of every pair group decided at that level run as
// batched Fed-SAC instances, partitioned across the forked worker engines.
// Group tournaments are independent and bracket-shape invariant, so the
// resulting index is identical for every worker count and batching mode —
// and query-equivalent to a witness-pruned Build at the same weights.
func (c *Customizer) Run() (*Index, error) {
	if c.ran {
		return nil, fmt.Errorf("ch: Customizer.Run called twice")
	}
	c.ran = true
	defer func() {
		for _, wf := range c.workers {
			wf.Engine().Close()
		}
	}()

	start := time.Now()
	x, sk := c.x, c.sk
	pl := sk.Plan()
	p := c.f.P()

	win := make([]int32, len(pl.groups))
	for g := range pl.groups {
		win[g] = pl.groups[g][0]
	}
	for lvl := 0; lvl <= pl.maxLvl; lvl++ {
		if lvl > 0 {
			for _, a := range pl.shortcutsAt[lvl] {
				i := a - int32(x.numBase)
				ca, cb := win[pl.gA[i]], win[pl.gB[i]]
				x.childA[a], x.childB[a] = ca, cb
				for s := 0; s < p; s++ {
					x.siloW[s][a] = x.siloW[s][ca] + x.siloW[s][cb]
				}
			}
		}
		if err := c.tournaments(pl.groupsAt[lvl], win); err != nil {
			return nil, err
		}
	}

	x.custWinner = win
	n := len(sk.rank)
	x.hs = &hierarchyState{
		outAll:   make([][]int32, n),
		inAll:    make([][]int32, n),
		skips:    make([][]skipRec, n),
		viaIndex: make(map[graph.Vertex][]int32),
		parents:  make(map[int32][]int32),
	}
	x.upOut = make([][]int32, n)
	x.downIn = make([][]int32, n)
	for a := int32(0); a < int32(len(x.tail)); a++ {
		x.hs.outAll[x.tail[a]] = append(x.hs.outAll[x.tail[a]], a)
		x.hs.inAll[x.head[a]] = append(x.hs.inAll[x.head[a]], a)
		if x.via[a] != NoShortcut {
			x.hs.viaIndex[x.via[a]] = append(x.hs.viaIndex[x.via[a]], a)
			x.hs.parents[x.childA[a]] = append(x.hs.parents[x.childA[a]], a)
			x.hs.parents[x.childB[a]] = append(x.hs.parents[x.childB[a]], a)
		}
		x.addArcToQueryLists(a)
	}

	var sacStats mpc.Stats
	for _, wf := range c.workers {
		sacStats.Add(wf.Engine().Stats())
	}
	x.buildStats = BuildStats{
		Shortcuts:   x.NumShortcuts(),
		SAC:         sacStats,
		WallTime:    time.Since(start),
		Workers:     len(c.workers),
		Rounds:      pl.maxLvl + 1,
		RoundsSaved: sacStats.Compares*int64(mpc.RoundsPerCompare) - sacStats.Rounds,
		Customized:  true,
		Levels:      pl.maxLvl,
	}
	return x, nil
}

// tournaments resolves the winners of the given multi-member pair groups,
// split into contiguous chunks across the worker engines. Each group's
// tournament is self-contained, so the partition affects wall time only.
func (c *Customizer) tournaments(duel []int32, win []int32) error {
	if len(duel) == 0 {
		return nil
	}
	x, pl := c.x, c.sk.Plan()
	nw := len(c.sacs)
	if nw > len(duel) {
		nw = len(duel)
	}
	chunk := (len(duel) + nw - 1) / nw
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if hi > len(duel) {
			hi = len(duel)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(sac *fed.SAC, part []int32) {
			defer wg.Done()
			slates := make([][]fed.Partial, len(part))
			for i, g := range part {
				members := pl.groups[g]
				slate := make([]fed.Partial, len(members))
				for j, a := range members {
					slate[j] = x.Partial(a)
				}
				slates[i] = slate
			}
			for i, w := range x.earliestMinGroups(x.lessVia(sac), slates) {
				win[part[i]] = pl.groups[part[i]][w]
			}
		}(c.sacs[wi], duel[lo:hi])
	}
	wg.Wait()
	for _, sac := range c.sacs {
		if err := sac.Err(); err != nil {
			return err
		}
	}
	return nil
}

// updateCustomized is the dynamic-update path for customized indexes: the
// topology is immutable, so a traffic change refreshes the skeleton's weight
// slots in place — re-weight the shortcuts whose child groups' winners
// changed, re-run the tournaments of pair groups with changed members (one
// batch per level), and propagate only while a winner's identity or partial
// weights actually moved. No arcs are ever added (AddedShortcuts is always
// zero); UpdateStats.ReverifiedVertices counts re-run group tournaments
// here.
func (x *Index) updateCustomized(changed []graph.Arc) (UpdateStats, error) {
	start := time.Now()
	before := x.f.Engine().Stats()
	stats := UpdateStats{ChangedArcs: len(changed)}
	p := x.f.P()
	pl := x.skel.Plan()
	x.ensureWinners(pl)

	// Step 1 — refresh base partials; a group is dirty when a member's
	// partial vector changed (per-silo: equal joint costs can hide a
	// redistribution consumers must still inherit).
	changedArc := make(map[int32]bool)
	dirtyMember := make(map[int32]bool)
	dirtyWinner := make(map[int32]bool)
	for _, a := range changed {
		ai := int32(a)
		for s := 0; s < p; s++ {
			nw := x.f.Silo(s).Weight(a)
			if x.siloW[s][ai] != nw {
				x.siloW[s][ai] = nw
				changedArc[ai] = true
			}
		}
		if changedArc[ai] {
			dirtyMember[pl.groupOf[ai]] = true
		}
	}
	if len(changedArc) == 0 {
		stats.WallTime = time.Since(start)
		return stats, nil
	}

	sac := x.f.NewSAC()
	for lvl := 0; lvl <= pl.maxLvl; lvl++ {
		// Step 2 — re-weight the level's shortcuts whose child winners moved.
		if lvl > 0 {
			for _, a := range pl.shortcutsAt[lvl] {
				i := a - int32(x.numBase)
				ga, gb := pl.gA[i], pl.gB[i]
				if !dirtyWinner[ga] && !dirtyWinner[gb] {
					continue
				}
				ca, cb := x.custWinner[ga], x.custWinner[gb]
				x.childA[a], x.childB[a] = ca, cb
				chgd := false
				for s := 0; s < p; s++ {
					nw := x.siloW[s][ca] + x.siloW[s][cb]
					if x.siloW[s][a] != nw {
						x.siloW[s][a] = nw
						chgd = true
					}
				}
				if chgd {
					changedArc[a] = true
					dirtyMember[pl.groupOf[a]] = true
					stats.RecomputedShortcuts++
				}
			}
		}
		// Step 3 — re-decide the dirty groups settled at this level.
		var duel []int32
		for g := range dirtyMember {
			if pl.groupLvl[g] != int32(lvl) {
				continue
			}
			if len(pl.groups[g]) == 1 {
				dirtyWinner[g] = true // sole member IS the winner; its value moved
			} else {
				duel = append(duel, g)
			}
		}
		if len(duel) == 0 {
			continue
		}
		sort.Slice(duel, func(i, j int) bool { return duel[i] < duel[j] })
		slates := make([][]fed.Partial, len(duel))
		for i, g := range duel {
			members := pl.groups[g]
			slate := make([]fed.Partial, len(members))
			for j, a := range members {
				slate[j] = x.Partial(a)
			}
			slates[i] = slate
		}
		winners := x.earliestMinGroups(x.lessVia(sac), slates)
		if err := sac.Err(); err != nil {
			return stats, err
		}
		for i, g := range duel {
			nw := pl.groups[g][winners[i]]
			if nw != x.custWinner[g] || changedArc[nw] {
				x.custWinner[g] = nw
				dirtyWinner[g] = true
			}
			stats.ReverifiedVertices++
		}
	}

	stats.SAC = x.f.Engine().Stats().Sub(before)
	stats.WallTime = time.Since(start)
	return stats, nil
}

// ensureWinners rebuilds the per-group winner table after deserialization:
// every shortcut's recorded children ARE the winners of its child groups at
// customization time, and groups consumed by no shortcut have no observable
// winner.
func (x *Index) ensureWinners(pl *custPlan) {
	if x.custWinner != nil {
		return
	}
	win := make([]int32, len(pl.groups))
	for g := range pl.groups {
		win[g] = pl.groups[g][0]
	}
	for a := int32(x.numBase); a < int32(len(x.tail)); a++ {
		i := a - int32(x.numBase)
		win[pl.gA[i]] = x.childA[a]
		win[pl.gB[i]] = x.childB[a]
	}
	x.custWinner = win
}
