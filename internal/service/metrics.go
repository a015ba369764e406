package service

import (
	"fmt"
	"net/http"
)

// handleMetrics renders the Prometheus text exposition: the admission
// queue, request/item counters, the shared engine's L1/L2 cache movement,
// the persistent store's counters, and the aggregate MILP solver
// accounting.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	queued, inflight := s.adm.depth()
	p("# TYPE regsat_queue_depth gauge\n")
	p("regsat_queue_depth %d\n", queued)
	p("# TYPE regsat_inflight gauge\n")
	p("regsat_inflight %d\n", inflight)
	p("# TYPE regsat_draining gauge\n")
	p("regsat_draining %d\n", boolGauge(s.draining.Load()))

	p("# TYPE regsat_requests_total counter\n")
	p("regsat_requests_total %d\n", s.requests.Load())
	p("# TYPE regsat_rejected_total counter\n")
	p("regsat_rejected_total %d\n", s.rejected.Load())
	p("# TYPE regsat_items_total counter\n")
	p("regsat_items_total %d\n", s.items.Load())
	p("# TYPE regsat_item_errors_total counter\n")
	p("regsat_item_errors_total %d\n", s.itemErrors.Load())

	// L1 memo (shared across every request) and computations performed.
	bs := s.base.Stats()
	p("# TYPE regsat_memo_hits_total counter\n")
	p("regsat_memo_hits_total %d\n", bs.Hits)
	p("# TYPE regsat_memo_l2_hits_total counter\n")
	p("regsat_memo_l2_hits_total %d\n", bs.L2Hits)
	p("# TYPE regsat_rs_computed_total counter\n")
	p("regsat_rs_computed_total %d\n", bs.Misses)

	// Persistent store (L2), when attached.
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		p("# TYPE regsat_store_hits_total counter\n")
		p("regsat_store_hits_total %d\n", st.Hits)
		p("# TYPE regsat_store_misses_total counter\n")
		p("regsat_store_misses_total %d\n", st.Misses)
		p("# TYPE regsat_store_puts_total counter\n")
		p("regsat_store_puts_total %d\n", st.Puts)
		p("# TYPE regsat_store_errors_total counter\n")
		p("regsat_store_errors_total %d\n", st.Errors)
	}

	// Cluster sharding, when this daemon is a fleet replica.
	if c := s.cluster; c != nil {
		p("# TYPE regsat_cluster_members gauge\n")
		p("regsat_cluster_members %d\n", len(c.ring.Members()))
		p("# TYPE regsat_cluster_vnodes gauge\n")
		p("regsat_cluster_vnodes %d\n", c.ring.VNodes())
		p("# TYPE regsat_cluster_forwards_sent_total counter\n")
		p("regsat_cluster_forwards_sent_total %d\n", c.forwardsSent.Load())
		p("# TYPE regsat_cluster_forwards_received_total counter\n")
		p("regsat_cluster_forwards_received_total %d\n", c.forwardsReceived.Load())
		p("# TYPE regsat_cluster_forwards_failed_total counter\n")
		p("regsat_cluster_forwards_failed_total %d\n", c.forwardsFailed.Load())
		p("# TYPE regsat_cluster_local_items_total counter\n")
		p("regsat_cluster_local_items_total %d\n", c.localItems.Load())
		p("# TYPE regsat_cluster_remote_items_total counter\n")
		p("regsat_cluster_remote_items_total %d\n", c.remoteItems.Load())
	}

	// Trace ring movement and the live sampling knob.
	ts := s.tracer.Stats()
	p("# TYPE regsat_trace_sample_rate gauge\n")
	p("regsat_trace_sample_rate %g\n", s.tracer.SampleRate())
	p("# TYPE regsat_trace_ring_traces gauge\n")
	p("regsat_trace_ring_traces %d\n", ts.Traces)
	p("# TYPE regsat_trace_evicted_total counter\n")
	p("regsat_trace_evicted_total %d\n", ts.EvictedTraces)
	p("# TYPE regsat_trace_dropped_spans_total counter\n")
	p("regsat_trace_dropped_spans_total %d\n", ts.DroppedSpans)

	// Aggregate MILP solver accounting across every solve the daemon ran.
	s.solverMu.Lock()
	agg, solves := s.solverAgg, s.solves
	s.solverMu.Unlock()
	p("# TYPE regsat_solver_solves_total counter\n")
	p("regsat_solver_solves_total %d\n", solves)
	p("# TYPE regsat_solver_nodes_total counter\n")
	p("regsat_solver_nodes_total %d\n", agg.Nodes)
	p("# TYPE regsat_solver_simplex_iters_total counter\n")
	p("regsat_solver_simplex_iters_total %d\n", agg.SimplexIters)
	p("# TYPE regsat_solver_warm_starts_total counter\n")
	p("regsat_solver_warm_starts_total %d\n", agg.WarmStarts)
	p("# TYPE regsat_solver_cold_starts_total counter\n")
	p("regsat_solver_cold_starts_total %d\n", agg.ColdStarts)
	p("# TYPE regsat_solver_incumbents_total counter\n")
	p("regsat_solver_incumbents_total %d\n", agg.Incumbents)
	p("# TYPE regsat_solver_fallbacks_total counter\n")
	p("regsat_solver_fallbacks_total %d\n", agg.Fallbacks)
	p("# TYPE regsat_solver_presolve_rows_total counter\n")
	p("regsat_solver_presolve_rows_total %d\n", agg.PresolveRows)
	p("# TYPE regsat_solver_presolve_cols_total counter\n")
	p("regsat_solver_presolve_cols_total %d\n", agg.PresolveCols)
	p("# TYPE regsat_solver_presolve_tightenings_total counter\n")
	p("regsat_solver_presolve_tightenings_total %d\n", agg.PresolveTightenings)
	p("# TYPE regsat_solver_cuts_added_total counter\n")
	p("regsat_solver_cuts_added_total %d\n", agg.CutsAdded)
	p("# TYPE regsat_solver_cuts_active_total counter\n")
	p("regsat_solver_cuts_active_total %d\n", agg.CutsActive)
	p("# TYPE regsat_solver_branch_probes_total counter\n")
	p("regsat_solver_branch_probes_total %d\n", agg.BranchProbes)
	p("# TYPE regsat_solver_bland_iters_total counter\n")
	p("regsat_solver_bland_iters_total %d\n", agg.BlandIters)
	p("# TYPE regsat_solver_seconds_total counter\n")
	p("regsat_solver_seconds_total %g\n", agg.Duration.Seconds())
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
