package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/schedule"
)

// Thm42Summary is experiment E8: empirical verification of the Theorem 4.2
// construction across the population, with several schedules per graph.
type Thm42Summary struct {
	Schedules int
	// Equal counts instances with RS(Ḡ) = RN_σ exactly (guaranteed on
	// offset machines; on zero-offset machines touching lifetimes may
	// leave RS(Ḡ) between RN_σ and the strict-interference need).
	Equal int
	// Sandwich counts instances with RN_σ ≤ RS(Ḡ) ≤ RN⁺_σ.
	Sandwich int
	// CPBounded counts instances with CP(Ḡ) ≤ makespan(σ).
	CPBounded int
	// DAGPreserved counts extensions that admit a topological sort.
	DAGPreserved int
	Failures     []string
}

// Theorem42 runs E8: for every case, drive the construction with ASAP, ALAP
// and randomized schedules and verify the proof's guarantees.
func Theorem42(ctx context.Context, p Population, schedulesPerCase int, seed int64) (*Thm42Summary, error) {
	if schedulesPerCase <= 0 {
		schedulesPerCase = 3
	}
	rng := rand.New(rand.NewSource(seed))
	sum := &Thm42Summary{}
	for _, c := range p.Cases() {
		snap, err := ir.Build(c.Graph)
		if err != nil {
			return nil, err
		}
		scheds := sampleSchedules(snap, schedulesPerCase, rng)
		for _, s := range scheds {
			sum.Schedules++
			rn := s.RegisterNeed(c.Type)
			rnStrict := strictNeed(c.Graph, s, c.Type)
			arcs := reduce.SerializationArcs(snap, c.Type, s)
			ext, err := reduce.ApplyArcs(c.Graph, arcs)
			if err != nil {
				// Non-positive circuit: legal failure mode on VLIW/EPIC,
				// the paper excludes such solutions.
				continue
			}
			sum.DAGPreserved++
			res, err := rs.Compute(ctx, ext, c.Type, rs.Options{Method: rs.MethodExactBB, SkipWitness: true})
			if err != nil || !res.Exact {
				continue
			}
			if res.RS == rn {
				sum.Equal++
			}
			if rn <= res.RS && res.RS <= rnStrict {
				sum.Sandwich++
			} else {
				sum.Failures = append(sum.Failures,
					fmt.Sprintf("%s: RS(Ḡ)=%d outside [%d,%d]", c.Name, res.RS, rn, rnStrict))
			}
			if ext.CriticalPath() <= s.Makespan() {
				sum.CPBounded++
			} else {
				sum.Failures = append(sum.Failures,
					fmt.Sprintf("%s: CP(Ḡ)=%d > makespan=%d", c.Name, ext.CriticalPath(), s.Makespan()))
			}
		}
	}
	return sum, nil
}

func strictNeed(g *ddg.Graph, s *schedule.Schedule, t ddg.RegType) int {
	ivs := s.Lifetimes(t)
	slack := reduce.StrictSlack(g)
	for i := range ivs {
		if !ivs[i].Empty() {
			ivs[i].End += slack
		}
	}
	return schedule.MaxLive(ivs)
}

func sampleSchedules(snap *ir.Snapshot, count int, rng *rand.Rand) []*schedule.Schedule {
	g := snap.G
	var out []*schedule.Schedule
	asap := schedule.ASAPIR(snap)
	out = append(out, asap)
	if alap, err := schedule.ALAPIR(snap, g.Horizon()); err == nil {
		out = append(out, alap)
	}
	for len(out) < count {
		times := make([]int64, g.NumNodes())
		for _, u := range snap.Topo {
			earliest := asap.Times[u]
			dst, wt := snap.Rev.Row(u)
			for i, from := range dst {
				if tt := times[from] + wt[i]; tt > earliest {
					earliest = tt
				}
			}
			times[u] = earliest + rng.Int63n(3)
		}
		s := schedule.New(g, times)
		if s.Validate() == nil {
			out = append(out, s)
		}
	}
	return out
}

// Report renders the E8 summary.
func (s *Thm42Summary) Report() string {
	out := "E8 — Theorem 4.2 construction verification\n\n"
	t := NewTable("property", "holds", "out of")
	t.Add("extension admits topological sort", s.DAGPreserved, s.Schedules)
	t.Add("RN_σ ≤ RS(Ḡ) ≤ RN⁺_σ", s.Sandwich, s.DAGPreserved)
	t.Add("RS(Ḡ) = RN_σ exactly", s.Equal, s.DAGPreserved)
	t.Add("CP(Ḡ) ≤ makespan(σ)", s.CPBounded, s.DAGPreserved)
	out += t.String()
	if len(s.Failures) > 0 {
		out += "\nFAILURES:\n"
		for _, f := range s.Failures {
			out += "  " + f + "\n"
		}
	} else {
		out += "\nno violations observed\n"
	}
	return out
}
