package main

import (
	"fmt"
	"time"
)

// endToEnd is the untraced run: set up (several times, for setup_s), run
// the fixed passes of the timed phase closed-loop, verify every answer, and
// report the end-to-end metrics.
func (b *bench) endToEnd(w workload) (*result, error) {
	sc, err := w.newScenario(b, w)
	if err != nil {
		return nil, fmt.Errorf("generating inputs and references: %w", err)
	}
	f, setups, err := b.setUp(w, sc, w.setups)
	if err != nil {
		return nil, err
	}
	ph, err := b.timedPhase(w, sc, f, 0, w.passes(b.seconds, sc.passItems()), nil)
	if err != nil {
		return nil, err
	}
	t := ph.tally
	b.logf("%d items in %d requests over %d passes, %.2fs busy, host steal %.1f%%; %d failed, %d refused",
		t.attempted, len(t.latencies), len(t.passRates), t.busy.Seconds(), 100*ph.steal, t.failed, t.refused)
	// Printed, not bounded: failed_share is 0 on a correct commit, and a
	// p99 needs 1,000 requests for ten beyond it, so it is taken over the
	// whole run, where host CPU steal bursts dominate it.
	fmt.Printf("%-34s %14.6g %s\n", "failed_share", share(float64(t.failed), float64(t.attempted)), "ratio")
	fmt.Printf("%-34s %14.6g %s\n", "latency_p99_ms (whole run)", quantile(t.latencies, 0.99), "ms")
	items := float64(t.attempted)
	var allocs, bytes, hwm int64
	for i := range ph.after {
		allocs += ph.after[i].allocs - ph.before[i].allocs
		bytes += ph.after[i].bytes - ph.before[i].bytes
		hwm = max(hwm, ph.after[i].hwmKB)
	}
	m := map[string]metric{
		"setup_s":                  {median(setups), "s"},
		"items_per_s":              {median(t.passRates), "items/s"},
		"latency_p50_ms":           {median(t.passP50), "ms"},
		"latency_p90_ms":           {median(t.passP90), "ms"},
		"exact_share":              {share(float64(t.exact), items), "ratio"},
		"daemon_cpu_ms_per_item":   {midMean(ph.passCPU), "ms"},
		"daemon_allocs_per_item":   {float64(allocs) / items, "count"},
		"daemon_alloc_kb_per_item": {float64(bytes) / 1024 / items, "KiB"},
		"peak_rss_mb":              {float64(hwm) / 1024, "MiB"},
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	tally
	before, after []procSample
	counters      phaseCounters
	outs          [][]outcome // per pass
	passCPU       []float64   // daemon CPU ms per item, per pass
	steal         float64     // share of the host's CPU time stolen during the phase
}

// fleetCPU is the CPU time used so far by every daemon of the fleet.
func fleetCPU(f *fleet) (time.Duration, error) {
	var sum time.Duration
	for _, d := range f.all {
		c, err := d.cpu()
		if err != nil {
			return 0, fmt.Errorf("reading CPU time of %s: %w", d.name, err)
		}
		sum += c
	}
	return sum, nil
}

// timedPhase runs passes [from, to) of the scenario on the fleet, with every
// request of pass i force-traced when traced(i) holds (traced may be nil),
// and brackets them with process
// samples and /metrics scrapes taken outside the timed passes. It fails
// when the counters show the workload missed its purpose; wrong answers are
// counted in the tally.
func (b *bench) timedPhase(w workload, sc scenario, f *fleet, from, to int, traced func(pass int) bool) (*phase, error) {
	hc := newHTTPClient(w.conns)
	defer hc.CloseIdleConnections()
	ph := &phase{}
	var err error
	scrBefore, err := scrapeAll(b.ctx, f)
	if err != nil {
		return nil, err
	}
	if ph.before, err = sampleAll(b.ctx, f); err != nil {
		return nil, err
	}
	total0, steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	for i := from; i < to; i++ {
		reqs := sc.pass(i)
		items := 0
		for _, r := range reqs {
			items += len(r.items)
		}
		if traced != nil && traced(i) {
			for j := range reqs {
				reqs[j].trace = true
			}
		}
		cpu0, err := fleetCPU(f)
		if err != nil {
			return nil, err
		}
		wall, outs := runPass(b.ctx, hc, f.entry.base, reqs, w.conns)
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		cpu1, err := fleetCPU(f)
		if err != nil {
			return nil, err
		}
		ph.add(reqs, outs, wall)
		ph.passCPU = append(ph.passCPU, float64(cpu1-cpu0)/float64(time.Millisecond)/float64(items))
		ph.outs = append(ph.outs, outs)
	}
	total1, steal1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	ph.steal = share(float64(steal1-steal0), float64(total1-total0))
	if ph.after, err = sampleAll(b.ctx, f); err != nil {
		return nil, err
	}
	scrAfter, err := scrapeAll(b.ctx, f)
	if err != nil {
		return nil, err
	}
	ph.counters = newPhaseCounters(scrBefore, scrAfter)
	pc := ph.counters
	b.logf("counters: memo hit share %.4f, store hit share %.4f, computed %v, fallbacks %v",
		pc.memoHitShare(), pc.storeHitShare(), pc.computed, pc.get("regsat_solver_fallbacks_total"))
	if ph.failed > 0 {
		b.logf("%d of %d items failed; first: %v", ph.failed, ph.attempted, ph.firstErr)
	}
	if err := w.purpose(ph.counters); err != nil {
		return nil, fmt.Errorf("workload missed its purpose: %w", err)
	}
	return ph, nil
}
