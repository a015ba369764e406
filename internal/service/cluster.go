package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"regsat/client"
	"regsat/internal/batch"
	"regsat/internal/obs"
)

// forwardHeader is the single-hop forwarding guard. A replica forwarding
// items to their ring owner stamps it with its own identity; a replica
// receiving a request carrying it serves every item locally and NEVER
// forwards again. Forwarding is therefore loop-free by construction: a
// request crosses at most one replica-to-replica hop, even when replicas
// disagree about membership (rolling restarts, skewed -peers flags).
const forwardHeader = "X-Regsat-Forwarded"

// cluster is the daemon's fleet membership: the consistent-hash ring over
// the configured peers and one guard-stamped client per peer. All fields
// are set once in newCluster; the counters are the only mutable state.
type cluster struct {
	self  string // this replica's normalized member identity
	ring  *client.Ring
	peers map[string]*client.Client // member -> client, excluding self

	// forwardsSent/Failed count peer-bound forward requests (one per peer
	// per analyze call, not per item); forwardsReceived counts guard-stamped
	// requests served. localItems/remoteItems count analyzed items by
	// whether this replica owns them on the ring — the fleet-wide ratio is
	// the shard-local hit rate.
	forwardsSent     atomic.Int64
	forwardsReceived atomic.Int64
	forwardsFailed   atomic.Int64
	localItems       atomic.Int64
	remoteItems      atomic.Int64
}

// newCluster validates the cluster configuration and builds the membership.
// No Peers means single-process mode (nil cluster, nil error).
func newCluster(cfg Config) (*cluster, error) {
	if len(cfg.Peers) == 0 {
		if client.NormalizeMember(cfg.Self) != "" {
			return nil, errors.New("service: Self is set but Peers is empty (a cluster needs the full member list, including this replica)")
		}
		return nil, nil
	}
	self := client.NormalizeMember(cfg.Self)
	if self == "" {
		return nil, errors.New("service: Peers is set but Self is empty (every replica must know its own member identity)")
	}
	ring := client.NewRing(cfg.Peers, cfg.VNodes)
	if !ring.Contains(self) {
		return nil, fmt.Errorf("service: Self %q is not in Peers %v (the member list must include this replica)", self, ring.Members())
	}
	c := &cluster{self: self, ring: ring, peers: map[string]*client.Client{}}
	hdr := http.Header{}
	hdr.Set(forwardHeader, self)
	for _, m := range ring.Members() {
		if m == self {
			continue
		}
		// Forwards retry 429s briefly (the owner's queue may drain), then
		// the coordinator falls back to computing locally.
		c.peers[m] = client.NewWithOptions(m, client.Options{
			Header:  hdr,
			Backoff: &client.Backoff{Attempts: 2},
		})
	}
	return c, nil
}

// countItem records one served item's shard locality.
func (c *cluster) countItem(fp string) {
	if c.ring.Owner(fp) == c.self {
		c.localItems.Add(1)
	} else {
		c.remoteItems.Add(1)
	}
}

// handleRing serves /v1/ring: the daemon's cluster topology. A client that
// builds client.NewRing(Members, VNodes) from this body owns exactly the
// fleet's ownership map.
func (s *Server) handleRing(w http.ResponseWriter, _ *http.Request) {
	info := client.RingInfo{}
	if s.cluster != nil {
		info = client.RingInfo{
			Enabled: true,
			Self:    s.cluster.self,
			Members: s.cluster.ring.Members(),
			VNodes:  s.cluster.ring.VNodes(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// serveClustered is the coordinator path of POST /v1/analyze: it partitions
// the request's items by ring ownership, serves owned items on the local
// engine, forwards the rest (batched per owner) to their replicas, and
// answers with the merged, input-ordered results. Streaming requests are
// collected first and then emitted in order — ownership partitioning and
// NDJSON-as-completed do not compose across replicas.
func (s *Server) serveClustered(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req *client.AnalyzeRequest, engine *batch.Engine, before batch.Stats, src batch.Source) {
	items, stats := s.clusterAnalyze(ctx, engine, before, req, src)

	root := obs.FromContext(ctx)
	var interrupted string
	if err := ctx.Err(); err != nil {
		interrupted = fmt.Sprintf("batch interrupted: %v", err)
		s.log(ctx).Warn("clustered analyze interrupted", "err", err)
	}

	if r.URL.Query().Get("stream") != "" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		emit := func(ev client.StreamEvent) {
			enc.Encode(ev)
			if flusher != nil {
				flusher.Flush()
			}
		}
		for _, it := range items {
			if it != nil {
				emit(client.StreamEvent{Item: it})
			}
		}
		if interrupted != "" {
			emit(client.StreamEvent{Error: interrupted})
		}
		emit(client.StreamEvent{Stats: &stats, TraceID: string(root.TraceID())})
		return
	}

	resp := client.AnalyzeResponse{
		Items:     []client.Item{},
		Stats:     stats,
		Error:     interrupted,
		RequestID: obs.RequestIDFromContext(ctx),
	}
	for _, it := range items {
		if it != nil {
			resp.Items = append(resp.Items, *it)
		}
	}
	s.attachTrace(&resp, root, req.TraceSpans)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// partition is one replica's slice of a clustered request: the items it
// will serve and their positions in the original input stream.
type partition struct {
	indices []int
	items   []batch.Item
	fps     []string
}

func (p *partition) add(idx int, it batch.Item, fp string) {
	p.indices = append(p.indices, idx)
	p.items = append(p.items, it)
	p.fps = append(p.fps, fp)
}

// clusterAnalyze runs the ownership-partitioned batch. The returned slice
// is indexed by input position; interrupted batches leave nil holes. Stats
// aggregate the local engine's cache movement plus every forwarded
// partition's reported stats.
func (s *Server) clusterAnalyze(ctx context.Context, engine *batch.Engine, before batch.Stats,
	req *client.AnalyzeRequest, src batch.Source) ([]*client.Item, client.RunStats) {
	// Ownership is per item, so the coordinator drains the source up front
	// (sources are lazy only for the benefit of the streaming path, which
	// cluster mode collects anyway).
	var all []batch.Item
	for {
		it, ok := src.Next()
		if !ok {
			break
		}
		all = append(all, it)
	}

	local := &partition{}
	remote := map[string]*partition{}
	for i, it := range all {
		if it.Err == nil && (it.Graph != nil || it.Loop != nil) {
			var fp string
			if it.Loop != nil {
				fp = it.Loop.Fingerprint()
			} else {
				fp = batch.Fingerprint(it.Graph)
			}
			if owner := s.cluster.ring.Owner(fp); owner != "" && owner != s.cluster.self {
				p := remote[owner]
				if p == nil {
					p = &partition{}
					remote[owner] = p
				}
				p.add(i, it, fp)
				continue
			}
			local.add(i, it, fp)
			continue
		}
		// Load errors have no fingerprint to own; they stay local.
		local.add(i, it, "")
	}

	out := make([]*client.Item, len(all))
	withWitness := req.Options.Witness
	wantDDG := req.Options.Reduce != nil

	// runLocal serves one partition on this replica's engine, writing each
	// result at its original input position (goroutines write disjoint
	// positions, so the slice needs no lock).
	runLocal := func(p *partition) {
		if len(p.items) == 0 {
			return
		}
		ch, err := engine.Run(ctx, batch.Items(p.items...))
		if err != nil {
			for k, idx := range p.indices {
				out[idx] = &client.Item{Index: idx, Name: p.items[k].Name, Error: err.Error()}
			}
			return
		}
		for res := range ch {
			idx := p.indices[res.Index]
			res.Index = idx
			item := s.itemToWire(res, withWitness, wantDDG)
			out[idx] = &item
		}
	}

	// The peer gets what is left of the deadline, at least 1 ms: zero would
	// mean the peer's default and a negative value is a 400.
	var timeoutMs int64
	if dl, ok := ctx.Deadline(); ok {
		timeoutMs = max(1, time.Until(dl).Milliseconds())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runLocal(local)
	}()

	var statsMu sync.Mutex
	var forwarded client.RunStats
	for owner, p := range remote {
		wg.Add(1)
		go func(owner string, p *partition) {
			defer wg.Done()
			fr := &client.AnalyzeRequest{
				Graphs:    make([]client.GraphInput, len(p.items)),
				Options:   req.Options,
				TimeoutMs: timeoutMs,
			}
			for k, it := range p.items {
				text := ""
				if it.Loop != nil {
					text = it.Loop.Format()
				} else {
					text = it.Graph.Format()
				}
				fr.Graphs[k] = client.GraphInput{Name: it.Name, DDG: text, Fingerprint: p.fps[k]}
			}
			// The forward span covers the whole hop; the peer client injects
			// its traceparent on the outgoing request, so the owning replica
			// joins this trace and its server/batch/solver spans stitch under
			// the same trace ID. The inline span attachment (TraceSpans) is
			// how they travel back.
			fctx, fsp := obs.StartSpan(ctx, "cluster.forward",
				obs.Str("peer", owner), obs.Int("items", int64(len(p.items))))
			if fsp != nil {
				fr.TraceSpans = true
			}
			s.cluster.forwardsSent.Add(1)
			resp, err := s.cluster.peers[owner].Analyze(fctx, fr)
			if err != nil {
				// Availability over shard purity: an unreachable owner's
				// items are computed here (and counted remote).
				s.cluster.forwardsFailed.Add(1)
				fsp.Event("forward.failed", obs.Str("err", err.Error()))
				fsp.End()
				s.log(ctx).Warn("forward failed, computing locally",
					"peer", owner, "items", len(p.items), "err", err)
				runLocal(p)
				return
			}
			fsp.End()
			s.tracer.AddSpans(wireToSpans(resp.Spans))
			for _, item := range resp.Items {
				if item.Index < 0 || item.Index >= len(p.indices) {
					continue // a malformed peer answer must not corrupt other positions
				}
				idx := p.indices[item.Index]
				it := item
				it.Index = idx
				out[idx] = &it
			}
			statsMu.Lock()
			forwarded.L1Hits += resp.Stats.L1Hits
			forwarded.L2Hits += resp.Stats.L2Hits
			forwarded.Computed += resp.Stats.Computed
			statsMu.Unlock()
		}(owner, p)
	}
	wg.Wait()

	stats := runStatsSince(engine, before)
	stats.L1Hits += forwarded.L1Hits
	stats.L2Hits += forwarded.L2Hits
	stats.Computed += forwarded.Computed
	return out, stats
}
