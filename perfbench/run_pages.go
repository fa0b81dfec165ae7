package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/tsa"
)

// Offered rates. The page rates sit well below each workload's knee on
// a 2-core host, so op_ms_* measure latency rather than queueing; they
// are constants so a faster build is measured at the same load.
var fixedPageRate = map[string]float64{"browse": 500, "resolve": 300}

// ownerOpRate is browse's owner stream: claims and revokes alternate.
const ownerOpRate = 40

func runPages(cfg config, dir string) (*outcome, error) {
	st, setups, err := measureSetup(func(i int) (*pageStack, error) {
		return newPageStack(cfg.workload, cfg.seed, filepath.Join(dir, fmt.Sprintf("stack%d", i)), cfg.gen)
	}, (*pageStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	out.rep.SetupS = setups
	out.e2e["setup_s"] = median(setups)
	rate := fixedPageRate[cfg.workload]
	fixedDur := secs(fixedShare, cfg.seconds)
	window := fixedDur // the owner stream runs beside the fixed-rate pages
	if cfg.trace {
		fixedDur = secs(tracePhaseShare, cfg.seconds)
		window = 2 * fixedDur
	}
	st.hashPages = make([][]byte, int(rate*fixedDur.Seconds()))

	var (
		ow      *ownerStream
		ownerPh phase
	)
	ownerDone := make(chan struct{})
	if cfg.workload == "browse" {
		ow = newOwnerStream(st)
		go func() {
			defer close(ownerDone)
			ownerPh = openLoop(ownerOpRate, window, 1, ow.op)
		}()
	} else {
		close(ownerDone)
	}

	stor0 := st.node.l.StorageStats()
	rt0 := markRuntime()
	fixed := openLoop(rate, fixedDur, st.pageWork, st.pageOp)
	rtw := windowSince(rt0)
	all := []phase{fixed}

	var pt *pageTrace
	if cfg.trace {
		pt = st.tracePhase(rate, fixedDur, ow, ownerDone)
		all = append(all, pt.phase)
	} else {
		// Capacity is measured with every generator goroutine sending
		// pages: the owner stream is done and its connection closed.
		<-ownerDone
		if st.ownerHC != nil {
			st.ownerHC.CloseIdleConnections()
		}
		st.setBrowsers(cfg.gen)
		capacity, atSLO, phases := capacityPhases(cfg.seconds, st.pageWork, st.pageOp)
		out.e2e["closed_per_s"] = capacity
		out.e2e["rate_at_slo"] = atSLO
		all = append(all, phases...)
	}
	stor1 := st.node.l.StorageStats()

	out.e2e["op_ms_p50"] = fixed.typicalMs()
	out.e2e["op_ms_p99"] = fixed.chunkedQuantileMs(0.99)
	out.rep.Runtime = rtw
	out.rep.Runtime.LatenessMsP99 = fixed.quantileMs(0.99, sample.lateness)
	out.rep.EndToEnd = map[string]metric{
		"setup_s":     {out.e2e["setup_s"], "s"},
		"page_ms_p50": {out.e2e["op_ms_p50"], "ms"},
		"page_ms_p99": {out.e2e["op_ms_p99"], "ms"},
	}
	if !cfg.trace {
		out.rep.EndToEnd["page_rate_at_slo"] = metric{out.e2e["rate_at_slo"], "pages/s"}
		out.rep.EndToEnd["page_closed_per_s"] = metric{out.e2e["closed_per_s"], "pages/s"}
	}
	out.rep.Samples = map[string]int{"page_ms": len(fixed.samples)}
	out.rep.Streams = map[string]streamCount{"pages": countStream(all)}
	if ow != nil {
		out.rep.EndToEnd["owner_op_ms_p50"] = metric{ownerPh.quantileMs(0.50, sample.latency), "ms"}
		out.rep.EndToEnd["owner_op_ms_p99"] = metric{ownerPh.quantileMs(0.99, sample.latency), "ms"}
		out.rep.EndToEnd["revoke_visible_ms_p50"] = metric{quantileMs(ow.visible, 0.50), "ms"}
		out.rep.EndToEnd["revoke_visible_ms_p90"] = metric{quantileMs(ow.visible, 0.90), "ms"}
		out.rep.Samples["owner_op_ms"] = len(ownerPh.samples)
		out.rep.Samples["revoke_visible_ms"] = len(ow.visible)
		out.rep.Streams["owner"] = countStream([]phase{ownerPh})
	}

	// Gates, outside every timed window.
	out.rep.Gates = map[string]string{"pages": "ok", "proofs": "ok", "ledger_count": "ok"}
	if st.mismatch > 0 {
		out.rep.Gates["pages"] = fmt.Sprintf("%d of %d pages wrong; first: %s", st.mismatch, st.pagesDone, st.firstBad)
	}
	if len(st.kept) == 0 {
		out.rep.Gates["proofs"] = "no proofs were kept to verify"
	} else if err := verifyProofs(st.node.l.SigningKey(), st.kept); err != nil {
		out.rep.Gates["proofs"] = err.Error()
	}
	wantClaims := st.claims
	if ow != nil {
		wantClaims += ow.claims
		out.rep.Gates["revocations"] = "ok"
		if ow.neverVisible > 0 || ow.firstErr != nil {
			out.rep.Gates["revocations"] = fmt.Sprintf("%d revocations never visible; first error: %v", ow.neverVisible, ow.firstErr)
		}
	}
	if got, _ := st.node.l.Count(); got != wantClaims {
		out.rep.Gates["ledger_count"] = fmt.Sprintf("ledger holds %d claims, benchmark made %d", got, wantClaims)
	}
	out.rep.Samples["kept_proofs"] = len(st.kept)

	h := sha256.New()
	for _, d := range st.hashPages {
		h.Write(d)
	}
	if ow != nil {
		h.Write(ow.log)
	}
	out.rep.DecisionHash = hex.EncodeToString(h.Sum(nil))

	if cfg.trace {
		L := out.layer
		for k, val := range pt.layer {
			L[k] = val
		}
		L["runtime.gc_pause_us_p99"] = rtw.GCPauseUsP99
		L["runtime.sched_latency_us_p99"] = rtw.SchedUsP99
		L["runtime.alloc_bytes_per_op"] = float64(rtw.AllocBytes) / float64(max(1, len(fixed.samples)))
		L["runtime.cpu_busy_frac"] = rtw.CPUBusyFrac
		L["loadgen.lateness_ms_p99"] = fixed.quantileMs(0.99, sample.lateness)
		L["e2e.op_ms_p99"] = out.e2e["op_ms_p99"]
		L["loadgen.offered_per_s"] = fixed.offered
		L["loadgen.completed_per_s"] = fixed.completedPerS()
		untraced := fixed.quantileMs(0.50, sample.latency)
		L["trace.overhead_frac"] = (pt.phase.quantileMs(0.50, sample.latency) - untraced) / untraced
		L["ledger.flushes"] = float64(stor1.Flushes - stor0.Flushes)
		L["ledger.compactions"] = float64(stor1.Compactions - stor0.Compactions)
		L["ledger.wal_records_per_sync"] = float64(stor1.WALRecords-stor0.WALRecords) / float64(max(1, stor1.WALSyncs-stor0.WALSyncs))
		if ow != nil {
			if err := ownerLayers(L, ow, ownerPh, filepath.Join(dir, "replay")); err != nil {
				return nil, err
			}
		}
		out.rep.PerLayer = layerMetrics(L)
	}
	return out, nil
}

func countStream(ps []phase) streamCount {
	var c streamCount
	for _, p := range ps {
		c.Attempted += len(p.samples)
		c.Failed += p.failed()
	}
	c.Succeeded = c.Attempted - c.Failed
	return c
}

// pageTrace is the traced phase of a page workload.
type pageTrace struct {
	phase phase
	layer map[string]float64
}

// tracePhase runs the fixed-rate phase again with a timing Service in
// the proxy's directory, then replays the captured batches directly on
// the ledger to split each page into proxy, wire and ledger time. The
// replays start once the owner stream is done (ownerDone closed), so
// nothing else touches the ledger or the benchmark's records.
func (s *pageStack) tracePhase(rate float64, dur time.Duration, ow *ownerStream, ownerDone <-chan struct{}) *pageTrace {
	reg := obs.NewRegistry()
	rec := &recorder{}
	v := s.proxy.Validator()
	s.dir.Register(1, &timedService{Service: s.upstream(reg), rec: rec})
	var pages []tracedPage
	s.traced = &pages
	if ow != nil {
		ow.trace.Store(true)
	}
	vs0 := v.Stats()
	ph := openLoop(rate, dur, s.pageWork, s.pageOp)
	vs1 := v.Stats()
	s.traced = nil
	if ow != nil {
		ow.trace.Store(false)
	}
	s.dir.Register(1, s.upstream(nil))
	<-ownerDone

	L := map[string]float64{}
	// Attribute each upstream batch to the page that caused it: the
	// page holds the batch's first ID and its span encloses the batch.
	byID := map[ids.PhotoID][]int{}
	for i, p := range pages {
		for _, id := range p.ids {
			byID[id] = append(byID[id], i)
		}
	}
	rec.mu.Lock()
	batches := rec.statusBatch
	syncs := rec.filterSync
	probes := len(rec.status)
	rec.mu.Unlock()
	upstream := make([]time.Duration, len(pages))
	hasUp := make([]bool, len(pages))
	for _, sp := range batches {
		for _, i := range byID[sp.batch[0]] {
			if p := pages[i]; !sp.start.Before(p.start) && !sp.end.After(p.end) {
				upstream[i] += sp.dur()
				hasUp[i] = true
				break
			}
		}
	}
	var self, selfUp, pageUp []time.Duration
	for i, p := range pages {
		d := p.end.Sub(p.start) - upstream[i]
		self = append(self, d)
		if hasUp[i] {
			selfUp = append(selfUp, d)
			pageUp = append(pageUp, p.end.Sub(p.start))
		}
	}
	L["proxy.self_us_p50"] = quantileUs(self, 0.50)
	L["proxy.self_us_p99"] = quantileUs(self, 0.99)
	if d := vs1.Total - vs0.Total; d > 0 {
		L["proxy.filter_answer_frac"] = float64(vs1.FilterMisses-vs0.FilterMisses) / float64(d)
		L["proxy.cache_hit_frac"] = float64(vs1.CacheHits-vs0.CacheHits) / float64(d)
	}
	L["proxy.upstream_ids_per_page"] = float64(vs1.LedgerQueries-vs0.LedgerQueries) / float64(max(1, len(pages)))

	var rpc, replay, wireSelf []time.Duration
	var nIDs, segIDs int
	for _, sp := range batches {
		rpc = append(rpc, sp.dur())
		nIDs += len(sp.batch)
		for _, id := range sp.batch {
			if !s.memtable[id] {
				segIDs++
			}
		}
	}
	L["wire.status_batch_us_p50"] = quantileUs(rpc, 0.50)
	L["wire.status_batch_us_p99"] = quantileUs(rpc, 0.99)
	var replayed, perIDTotal time.Duration
	var replayedIDs int
	var mem, seg []time.Duration
	for _, i := range spread(len(batches), 512) {
		sp := batches[i]
		d := timeCall(func() { _, _ = s.node.l.StatusBatch(sp.batch) })
		replay = append(replay, d)
		wireSelf = append(wireSelf, sp.dur()-d)
		replayed += d
		replayedIDs += len(sp.batch)
		for _, id := range sp.batch {
			if len(mem)+len(seg) >= 4096 {
				break
			}
			d := timeCall(func() { _, _ = s.node.l.Status(id) })
			if s.memtable[id] {
				mem = append(mem, d)
			} else {
				seg = append(seg, d)
			}
		}
	}
	perIDTotal = replayed
	L["wire.self_us_p50"] = quantileUs(wireSelf, 0.50)
	if nIDs > 0 {
		rpcs := reg.Counter("irs_wire_client_requests_total", obs.L("rpc", "status_batch"), obs.L("class", "ok")).Load()
		// Response bytes of status RPCs: everything received less the
		// filter-sync payloads, over the IDs of batches and probes.
		rx := int64(reg.Counter("irs_wire_client_rx_bytes_total", obs.L("codec", "binary")).Load() +
			reg.Counter("irs_wire_client_rx_bytes_total", obs.L("codec", "json")).Load())
		for _, sp := range syncs {
			rx -= int64(sp.bytes)
		}
		rx = max(rx, 0)
		L["wire.ids_per_rpc"] = float64(nIDs) / float64(max(1, rpcs))
		L["wire.rx_bytes_per_id"] = float64(rx) / float64(nIDs+probes)
		L["ledger.segment_read_frac"] = float64(segIDs) / float64(nIDs)
	}
	if replayedIDs > 0 {
		L["ledger.status_batch_us_per_id"] = float64(perIDTotal.Microseconds()) / float64(replayedIDs)
	}
	L["ledger.status_us_memtable_p50"] = quantileUs(mem, 0.50)
	L["ledger.status_us_segment_p50"] = quantileUs(seg, 0.50)
	L["ledger.status_us_segment_p99"] = quantileUs(seg, 0.99)
	var syncBytes []time.Duration
	for _, sp := range syncs {
		syncBytes = append(syncBytes, time.Duration(sp.bytes)*time.Millisecond)
	}
	L["ledger.filter_sync_bytes_p50"] = quantileMs(syncBytes, 0.50)

	// Reconciliation: on pages that went upstream, the proxy's self
	// time, the wire's self time and the ledger replay should add up to
	// the page; report the sum of their medians over the page median.
	if len(pageUp) > 0 {
		sum := quantileMs(selfUp, 0.5) + quantileMs(wireSelf, 0.5) + quantileMs(replay, 0.5)
		L["trace.reconcile_frac"] = sum / quantileMs(pageUp, 0.5)
	} else {
		// No page needed the ledger: the page is all proxy self time.
		L["trace.reconcile_frac"] = quantileMs(self, 0.5) / ph.quantileMs(0.5, sample.service)
	}
	return &pageTrace{phase: ph, layer: L}
}

// ownerLayers fills the owner-path and sync-plane metrics of browse:
// owner RPCs against direct ledger.Claim/Apply replays on a scratch
// ledger of the same configuration.
func ownerLayers(L map[string]float64, ow *ownerStream, ph phase, dir string) error {
	L["owner.op_ms_p50"] = ph.quantileMs(0.50, sample.latency)
	L["owner.op_ms_p99"] = ph.quantileMs(0.99, sample.latency)
	L["owner.revoke_visible_ms_p50"] = quantileMs(ow.visible, 0.50)
	L["owner.revoke_visible_ms_p90"] = quantileMs(ow.visible, 0.90)
	L["ledger.build_snapshot_us_p50"] = quantileUs(ow.snapshots, 0.50)
	L["proxy.refresh_filters_us_p50"] = quantileUs(ow.refreshes, 0.50)
	L["proxy.refresh_filters_us_p99"] = quantileUs(ow.refreshes, 0.99)

	scratch, err := ledger.New(ledger.Config{ID: 1, Dir: dir})
	if err != nil {
		return fmt.Errorf("opening replay ledger: %w", err)
	}
	defer scratch.Close()
	var claimD, applyD, self []time.Duration
	pubs := map[ids.PhotoID]ledger.Record{}
	for _, sp := range ow.tracedClaims {
		var hash [32]byte
		copy(hash[:], sp.claim.ContentHash)
		d := timeCall(func() { _, err = scratch.Claim(hash, sp.claim.PubKey, sp.claim.HashSig, false) })
		if err != nil {
			return fmt.Errorf("replaying claim: %w", err)
		}
		claimD = append(claimD, d)
		self = append(self, sp.dur()-d)
		pubs[sp.id] = ledger.Record{
			ID: sp.id, PubKey: sp.claim.PubKey, HashSig: sp.claim.HashSig, ContentHash: hash,
			Timestamp: &tsa.Token{Time: epoch, Sig: make([]byte, 64)}, State: ledger.StateActive,
		}
	}
	for _, sp := range ow.tracedApplies {
		rec, ok := pubs[sp.id]
		if !ok {
			continue // claimed before tracing began
		}
		if err := scratch.RestoreRecords([]ledger.Record{rec}); err != nil {
			return fmt.Errorf("restoring replay record: %w", err)
		}
		d := timeCall(func() { err = scratch.Apply(sp.id, ledger.OpRevoke, sp.sig) })
		if err != nil {
			return fmt.Errorf("replaying revoke: %w", err)
		}
		applyD = append(applyD, d)
		self = append(self, sp.dur()-d)
	}
	L["ledger.claim_us_p50"] = quantileUs(claimD, 0.50)
	L["ledger.claim_us_p99"] = quantileUs(claimD, 0.99)
	L["ledger.apply_us_p50"] = quantileUs(applyD, 0.50)
	L["ledger.apply_us_p99"] = quantileUs(applyD, 0.99)
	L["wire.owner_self_us_p50"] = quantileUs(self, 0.50)
	return nil
}
