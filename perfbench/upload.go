package main

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/aggregator"
	"irs/internal/camera"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/phash"
	"irs/internal/photo"
	"irs/internal/watermark"
	"irs/internal/wire"
)

const (
	uploadW, uploadH = 192, 128
	// corpusSize is one round of uploads: ten blocks of the 50-slot mix.
	// Every round goes to a fresh aggregator, so each round's decisions
	// are the corpus's decisions.
	corpusSize = 500
	// fixedUploadRate is the offered rate for op_ms_* on upload, well
	// below the knee on a 2-core host.
	fixedUploadRate = 200
	// ownersLabelURL is the ledger URL written into upload labels. It is
	// fixed, not the loopback address, so a seed's corpus is the same
	// bytes every run; the site routes by the ID's ledger, not the URL.
	ownersLabelURL = "https://ledger1.irs.example"
	// fullSearchPixels mirrors the aggregator's bound on the full
	// geometric watermark search.
	fullSearchPixels = 512 * 512
)

type itemKind byte

const (
	kActive itemKind = iota
	kRevoked
	kUnlabeled
	kMismatch
	kDerivative
	kStripped
	kMalformed
)

// slotKinds is the decision-diverse mix within each block of 50
// uploads: 76% labeled-active, 6% revoked, 6% unlabeled (custodial
// claims), 4% label-mismatched, 4% relabeled derivatives, 2%
// metadata-stripped, 2% malformed.
var slotKinds = func() (k [50]itemKind) {
	for _, s := range []int{3, 19, 36} {
		k[s] = kRevoked
	}
	for _, s := range []int{7, 23, 41} {
		k[s] = kUnlabeled
	}
	k[11], k[30] = kMismatch, kMismatch
	k[15], k[45] = kDerivative, kDerivative
	k[27] = kStripped
	k[49] = kMalformed
	return k
}()

// corpusItem is one upload as sent.
type corpusItem struct {
	raw []byte
	// deps are the earlier items whose images perceptually match this
	// one: the source of a relabeled derivative, and any accidental
	// look-alike. Whether this upload is a derivative of hosted content
	// depends on them being decided first, so it waits for them.
	deps []int
}

// buildCorpus makes n uploads, claiming the labeled ones on owners with
// seed-derived owner keys. It returns the number of claims made.
func buildCorpus(owners *ledger.Ledger, ledgerURL string, seed int64, n int) ([]corpusItem, int, error) {
	wm := watermark.DefaultConfig()
	rng := rand.New(rand.NewSource(seed*11 + 5))
	claims := 0
	label := func(im *photo.Image, k int, revoked bool) (*photo.Image, error) {
		priv := ownerKey(seed, "upload", k)
		hash := im.ContentHash()
		r, err := owners.Claim(hash, priv.Public().(ed25519.PublicKey), ed25519.Sign(priv, ledger.ClaimMsg(hash)), revoked)
		if err != nil {
			return nil, fmt.Errorf("claiming upload %d: %w", k, err)
		}
		claims++
		return camera.Label(im, r.ID, ledgerURL, wm)
	}
	shoot := func(k int) *photo.Image {
		im := photo.Synth(seed*1_000_003+int64(k), uploadW, uploadH)
		im.Meta.Set("camera.model", "irs-synthcam/1")
		return im
	}
	items := make([]corpusItem, 0, n)
	var lastIm *photo.Image
	var sigs []phash.Signature // of every item with an image, in order
	var sigItem []int
	for i := 0; i < n; i++ {
		var (
			it  corpusItem
			im  *photo.Image
			err error
		)
		switch slotKinds[i%len(slotKinds)] {
		case kMalformed:
			it.raw = []byte("corrupt frame")
			items = append(items, it)
			continue
		case kActive:
			im, err = label(shoot(i), i, false)
			lastIm = im
		case kRevoked:
			im, err = label(shoot(i), i, true)
		case kUnlabeled:
			im = shoot(i)
		case kMismatch:
			if im, err = label(shoot(i), i, false); err == nil {
				var other ids.PhotoID
				if other, err = ids.NewFrom(1, rng); err == nil {
					im.Meta.Set(photo.KeyIRSID, other.String())
				}
			}
		case kStripped:
			if im, err = label(shoot(i), i, false); err == nil {
				im, err = photo.StripViaPNM(im)
			}
		case kDerivative:
			var erased *photo.Image
			if erased, err = watermark.Erase(lastIm, wm, seed+int64(i)); err == nil {
				im, err = label(erased, i, false)
			}
		}
		if err != nil {
			return nil, 0, err
		}
		var buf bytes.Buffer
		if err := photo.EncodeIRSP(&buf, im); err != nil {
			return nil, 0, err
		}
		it.raw = buf.Bytes()
		sig := phash.NewSignature(im)
		for k, prev := range sigs {
			if prev.Matches(sig) {
				it.deps = append(it.deps, sigItem[k])
			}
		}
		sigs, sigItem = append(sigs, sig), append(sigItem, i)
		items = append(items, it)
	}
	return items, claims, nil
}

// refDecision is the serial reference outcome of one corpus item.
type refDecision struct {
	malformed bool
	accepted  bool
	custodial bool
	reason    string
	id        ids.PhotoID // labeled accepts only; custodial IDs vary
	hash      [32]byte    // content hash of the decoded upload
}

// referenceDecisions runs the corpus serially through Aggregator.Upload
// on a fresh aggregator reading the same owner ledger, with a private
// in-memory custodial ledger so the reference leaves no claims behind.
func referenceDecisions(owners *ledger.Ledger, corpus []corpusItem) ([]refDecision, error) {
	cust, err := ledger.New(ledger.Config{ID: 2})
	if err != nil {
		return nil, err
	}
	defer cust.Close()
	dir := wire.NewDirectory()
	dir.Register(1, &wire.Loopback{L: owners})
	dir.Register(2, &wire.Loopback{L: cust})
	agg, err := aggregator.New(aggregator.Config{
		Name: "reference", Unlabeled: aggregator.CustodialClaim, RecheckInterval: time.Hour,
		CustodialLedger: &wire.Loopback{L: cust}, CustodialLedgerURL: "reference",
	}, dir)
	if err != nil {
		return nil, err
	}
	out := make([]refDecision, len(corpus))
	for i, it := range corpus {
		im, err := photo.DecodeIRSP(bytes.NewReader(it.raw))
		if err != nil {
			out[i] = refDecision{malformed: true}
			continue
		}
		out[i].hash = im.ContentHash()
		res, err := agg.Upload(im)
		if err != nil {
			return nil, fmt.Errorf("reference upload %d: %w", i, err)
		}
		out[i].accepted, out[i].custodial, out[i].reason = res.Accepted, res.Custodial, res.Reason.String()
		if res.Accepted && !res.Custodial {
			out[i].id = res.ID
		}
	}
	return out, nil
}

// roundHeader names the round an upload belongs to. Each round is a
// fresh site: siteHandler routes it to its own aggregator, so rounds
// overlap without sharing hosted state and no round waits on another.
const roundHeader = "X-Perfbench-Round"

// siteHandler serves each round's aggregator, creating it on the
// round's first upload and dropping it once the round has completed.
type siteHandler struct {
	mu     sync.Mutex
	rounds map[int]*aggregator.Server
	open   func() (*aggregator.Server, error)
}

func (h *siteHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	round, err := strconv.Atoi(r.Header.Get(roundHeader))
	if err != nil {
		http.Error(w, "missing upload round", http.StatusBadRequest)
		return
	}
	srv, err := h.forRound(round)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	srv.ServeHTTP(w, r)
}

func (h *siteHandler) forRound(round int) (*aggregator.Server, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if srv, ok := h.rounds[round]; ok {
		return srv, nil
	}
	srv, err := h.open()
	if err != nil {
		return nil, err
	}
	h.rounds[round] = srv
	return srv, nil
}

func (h *siteHandler) drop(round int) {
	h.mu.Lock()
	delete(h.rounds, round)
	h.mu.Unlock()
}

// uploadStack is the upload path as irs-site runs it with
// -custodial-ledger: uploads POSTed one image per request to
// aggregator.Server, which reaches the owners' ledger and its custodial
// ledger over wire.
type uploadStack struct {
	owners, cust  *ledgerNode
	site          *httpNode
	handler       *siteHandler
	ownersC       *wire.Client // the site's long-lived ledger clients
	custC         *wire.Client
	corpus        []corpusItem
	claims        int
	uploaders     int
	client        *http.Client
	d             *dispatch
	traceRec      atomic.Pointer[recorder]
	mu            sync.Mutex
	results       []uploadRec
	tracedUploads []span
}

// uploadRec is one answered upload.
type uploadRec struct {
	slot   int
	status int
	resp   aggregator.UploadResponse
}

func (s *uploadStack) close() {
	s.site.close()
	s.owners.close()
	s.cust.close()
	s.client.CloseIdleConnections()
}

func newUploadStack(seed int64, dir string, gen int) (*uploadStack, error) {
	owners, err := newLedgerNode(1, filepath.Join(dir, "owners"), seed*13+1)
	if err != nil {
		return nil, err
	}
	cust, err := newLedgerNode(2, filepath.Join(dir, "custodial"), seed*13+2)
	if err != nil {
		owners.close()
		return nil, err
	}
	s := &uploadStack{owners: owners, cust: cust, uploaders: gen}
	ok := false
	defer func() {
		if !ok {
			owners.close()
			cust.close()
		}
	}()
	if s.corpus, s.claims, err = buildCorpus(owners.l, ownersLabelURL, seed, corpusSize); err != nil {
		return nil, err
	}
	// irs-site registers plain wire clients (JSON codec) per ledger.
	s.ownersC = wire.NewClient(owners.http.url, "")
	s.custC = wire.NewClient(cust.http.url, "")
	s.d = newDispatch(len(s.corpus))
	s.handler = &siteHandler{rounds: map[int]*aggregator.Server{}, open: s.newSite}
	if s.site, err = serve(s.handler); err != nil {
		return nil, err
	}
	s.client = clientFor(gen)
	ok = true
	return s, nil
}

// newSite is a fresh aggregator for one round, instrumented when a
// trace recorder is set.
func (s *uploadStack) newSite() (*aggregator.Server, error) {
	var owners, cust wire.Service = s.ownersC, s.custC
	if rec := s.traceRec.Load(); rec != nil {
		owners, cust = &timedService{Service: s.ownersC, rec: rec}, &timedService{Service: s.custC, rec: rec}
	}
	dir := wire.NewDirectory()
	dir.Register(1, owners)
	dir.Register(2, cust)
	agg, err := aggregator.New(aggregator.Config{
		Name: "perfbench", Unlabeled: aggregator.CustodialClaim, RecheckInterval: time.Hour,
		CustodialLedger: cust, CustodialLedgerURL: s.cust.http.url,
	}, dir)
	if err != nil {
		return nil, err
	}
	return aggregator.NewServer(agg), nil
}

// dispatch hands out uploads in corpus order, round after round, and
// lets an upload wait for the items of its round it depends on.
type dispatch struct {
	mu     sync.Mutex
	cond   *sync.Cond
	next   int
	n      int
	rounds map[int]*roundState // rounds with uploads outstanding
}

type roundState struct {
	done []bool // per corpus slot
	left int
}

func newDispatch(n int) *dispatch {
	d := &dispatch{n: n, rounds: map[int]*roundState{}}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *dispatch) take() (slot, round int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.next
	d.next++
	slot, round = g%d.n, g/d.n
	if d.rounds[round] == nil {
		d.rounds[round] = &roundState{done: make([]bool, d.n), left: d.n}
	}
	return slot, round
}

// waitFor blocks until the upload of slot in round has completed.
func (d *dispatch) waitFor(slot, round int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for rs := d.rounds[round]; rs != nil && !rs.done[slot]; rs = d.rounds[round] {
		d.cond.Wait()
	}
}

// finish marks an upload complete and reports whether it was the last
// of its round.
func (d *dispatch) finish(slot, round int) (roundOver bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rs := d.rounds[round]
	rs.done[slot] = true
	rs.left--
	if rs.left == 0 {
		delete(d.rounds, round)
		roundOver = true
	}
	d.cond.Broadcast()
	return roundOver
}

func (s *uploadStack) uploadOp(int) (time.Time, error) {
	slot, round := s.d.take()
	defer func() {
		if s.d.finish(slot, round) {
			s.handler.drop(round)
		}
	}()
	it := &s.corpus[slot]
	for _, dep := range it.deps {
		s.d.waitFor(dep, round)
	}
	start := time.Now()
	status, resp, err := s.post(it.raw, round)
	end := time.Now()
	if err != nil {
		return end, err
	}
	traced := s.traceRec.Load() != nil
	s.mu.Lock()
	s.results = append(s.results, uploadRec{slot: slot, status: status, resp: resp})
	if traced {
		s.tracedUploads = append(s.tracedUploads, span{start: start, end: end})
	}
	s.mu.Unlock()
	return end, nil
}

func (s *uploadStack) post(raw []byte, round int) (int, aggregator.UploadResponse, error) {
	var out aggregator.UploadResponse
	req, err := http.NewRequest(http.MethodPost, s.site.url+"/v1/upload", bytes.NewReader(raw))
	if err != nil {
		return 0, out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(roundHeader, strconv.Itoa(round))
	r, err := s.client.Do(req)
	if err != nil {
		return 0, out, err
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return 0, out, err
	}
	switch r.StatusCode {
	case http.StatusOK, http.StatusUnprocessableEntity:
		if err := json.Unmarshal(body, &out); err != nil {
			return 0, out, fmt.Errorf("decoding upload response: %w", err)
		}
	case http.StatusBadRequest: // undecodable upload
	default:
		return 0, out, fmt.Errorf("unexpected upload response: HTTP %d: %s", r.StatusCode, body)
	}
	return r.StatusCode, out, nil
}

// checkUploads is the upload gate: every answer must match the serial
// reference for its corpus item. Custodial accepts must name a
// custodial claim on the site's custodial ledger over the uploaded
// content. It returns the number of custodial claims the run made.
func checkUploads(results []uploadRec, ref []refDecision, cust *ledger.Ledger) (int, error) {
	custodial := 0
	for _, r := range results {
		want := ref[r.slot]
		if want.malformed {
			if r.status != http.StatusBadRequest {
				return 0, fmt.Errorf("malformed upload %d answered HTTP %d", r.slot, r.status)
			}
			continue
		}
		got := r.resp
		if got.Accepted != want.accepted || got.Reason != want.reason || got.Custodial != want.custodial {
			return 0, fmt.Errorf("upload %d: got accepted=%v reason=%s custodial=%v, reference accepted=%v reason=%s custodial=%v",
				r.slot, got.Accepted, got.Reason, got.Custodial, want.accepted, want.reason, want.custodial)
		}
		if !want.accepted {
			continue
		}
		id, err := ids.Parse(got.ID)
		if err != nil {
			return 0, fmt.Errorf("upload %d: hosted ID %q: %w", r.slot, got.ID, err)
		}
		if !want.custodial {
			if id != want.id {
				return 0, fmt.Errorf("upload %d hosted as %s, reference %s", r.slot, id, want.id)
			}
			continue
		}
		custodial++
		rec, err := cust.Record(id)
		if err != nil {
			return 0, fmt.Errorf("upload %d: custodial claim %s: %w", r.slot, id, err)
		}
		if !rec.Custodial || rec.ContentHash != want.hash {
			return 0, fmt.Errorf("upload %d: claim %s is not a custodial claim over the upload", r.slot, id)
		}
	}
	return custodial, nil
}

func runUpload(cfg config, dir string) (*outcome, error) {
	st, setups, err := measureSetup(func(i int) (*uploadStack, error) {
		return newUploadStack(cfg.seed, filepath.Join(dir, fmt.Sprintf("stack%d", i)), cfg.gen)
	}, (*uploadStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	out.rep.SetupS = setups
	out.e2e["setup_s"] = median(setups)

	fixedDur := secs(fixedShare, cfg.seconds)
	if cfg.trace {
		fixedDur = secs(tracePhaseShare, cfg.seconds)
	}
	rt0 := markRuntime()
	fixed := openLoop(fixedUploadRate, fixedDur, st.uploaders, st.uploadOp)
	rtw := windowSince(rt0)
	all := []phase{fixed}
	var traced phase
	rec := &recorder{}
	if cfg.trace {
		st.traceRec.Store(rec)
		traced = openLoop(fixedUploadRate, fixedDur, st.uploaders, st.uploadOp)
		st.traceRec.Store(nil)
		all = append(all, traced)
	} else {
		capacity, atSLO, phases := capacityPhases(cfg.seconds, st.uploaders, st.uploadOp)
		out.e2e["closed_per_s"] = capacity
		out.e2e["rate_at_slo"] = atSLO
		all = append(all, phases...)
	}
	out.e2e["op_ms_p50"] = fixed.typicalMs()
	out.e2e["op_ms_p99"] = fixed.chunkedQuantileMs(0.99)
	out.rep.Runtime = rtw
	out.rep.Runtime.LatenessMsP99 = fixed.quantileMs(0.99, sample.lateness)
	out.rep.EndToEnd = map[string]metric{
		"setup_s":       {out.e2e["setup_s"], "s"},
		"upload_ms_p50": {out.e2e["op_ms_p50"], "ms"},
		"upload_ms_p99": {out.e2e["op_ms_p99"], "ms"},
	}
	if !cfg.trace {
		out.rep.EndToEnd["uploads_per_s"] = metric{out.e2e["closed_per_s"], "images/s"}
		out.rep.EndToEnd["upload_rate_at_slo"] = metric{out.e2e["rate_at_slo"], "images/s"}
	}
	out.rep.Samples = map[string]int{"upload_ms": len(fixed.samples)}
	out.rep.Streams = map[string]streamCount{"uploads": countStream(all)}

	// Gates, outside every timed window.
	out.rep.Gates = map[string]string{"uploads": "ok", "ledger_count": "ok"}
	ref, err := referenceDecisions(st.owners.l, st.corpus)
	if err != nil {
		return nil, err
	}
	custodial, err := checkUploads(st.results, ref, st.cust.l)
	if err != nil {
		out.rep.Gates["uploads"] = err.Error()
	}
	if got, _ := st.owners.l.Count(); got != st.claims {
		out.rep.Gates["ledger_count"] = fmt.Sprintf("owners' ledger holds %d claims, benchmark made %d", got, st.claims)
	} else if got, _ := st.cust.l.Count(); err == nil && got != custodial {
		out.rep.Gates["ledger_count"] = fmt.Sprintf("custodial ledger holds %d claims, %d custodial uploads accepted", got, custodial)
	}
	out.rep.DecisionHash = uploadHash(st.corpus, ref)

	if cfg.trace {
		L := out.layer
		if err := uploadLayers(L, st, ref, rec, filepath.Join(dir, "replay")); err != nil {
			return nil, err
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
		L["trace.overhead_frac"] = (traced.quantileMs(0.50, sample.latency) - untraced) / untraced
		out.rep.PerLayer = layerMetrics(L)
	}
	return out, nil
}

// uploadHash digests the corpus and its reference decisions. Custodial
// claim IDs are left out: concurrent uploaders claim in varying order.
func uploadHash(corpus []corpusItem, ref []refDecision) string {
	h := sha256.New()
	for i, it := range corpus {
		h.Write(it.raw)
		r := ref[i]
		fmt.Fprintf(h, "|%v|%v|%v|%s|%s|", r.malformed, r.accepted, r.custodial, r.reason, r.id)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// uploadLayers fills the upload path's per-layer metrics: the timing
// Service spans of the traced phase, and direct replays of each media
// kernel and the derivative index over the corpus, in the aggregator's
// own order.
func uploadLayers(L map[string]float64, st *uploadStack, ref []refDecision, rec *recorder, dir string) error {
	var decode, extract, sig, lookup, status, claim, claimReplay, uploads []time.Duration
	reg := obs.NewRegistry()
	idx := aggregator.NewSigIndex(aggregator.IndexConfig{Obs: reg})
	wm := watermark.DefaultConfig()
	for i, it := range st.corpus {
		var im *photo.Image
		var err error
		d := timeCall(func() { im, err = photo.DecodeIRSP(bytes.NewReader(it.raw)) })
		if err != nil {
			continue
		}
		decode = append(decode, d)
		extract = append(extract, timeCall(func() {
			if _, err := watermark.ExtractAligned(im, wm); err != nil && im.W*im.H <= fullSearchPixels {
				_, _ = watermark.Extract(im, wm)
			}
		}))
		var s phash.Signature
		sig = append(sig, timeCall(func() { s = phash.NewSignature(im) }))
		lookup = append(lookup, timeCall(func() { idx.Lookup(s) }))
		if ref[i].accepted {
			idx.Add(s, ref[i].id)
		}
	}
	L["photo.decode_irsp_us_p50"] = quantileUs(decode, 0.50)
	L["watermark.extract_us_p50"] = quantileUs(extract, 0.50)
	L["watermark.extract_us_p99"] = quantileUs(extract, 0.99)
	L["phash.signature_us_p50"] = quantileUs(sig, 0.50)
	L["aggregator.sigindex_lookup_us_p50"] = quantileUs(lookup, 0.50)
	L["aggregator.sigindex_lookup_us_p99"] = quantileUs(lookup, 0.99)
	lookups := reg.Counter("irs_index_lookups_total", obs.L("result", "hit")).Load() +
		reg.Counter("irs_index_lookups_total", obs.L("result", "miss")).Load()
	// Signatures compared per lookup: banded candidates verified plus
	// the unindexed tail scanned.
	L["aggregator.sigindex_candidates_per_lookup"] = float64(reg.Counter("irs_index_verified_total").Load()) / float64(max(1, lookups))

	rec.mu.Lock()
	for _, sp := range rec.status {
		status = append(status, sp.dur())
	}
	claims := rec.claims
	rec.mu.Unlock()
	L["aggregator.status_us_p50"] = quantileUs(status, 0.50)
	scratch, err := ledger.New(ledger.Config{ID: 2, Dir: dir})
	if err != nil {
		return fmt.Errorf("opening replay ledger: %w", err)
	}
	defer scratch.Close()
	for _, sp := range claims {
		claim = append(claim, sp.dur())
		var hash [32]byte
		copy(hash[:], sp.claim.ContentHash)
		var err error
		claimReplay = append(claimReplay, timeCall(func() { _, err = scratch.CustodialClaim(hash, sp.claim.PubKey, sp.claim.HashSig) }))
		if err != nil {
			return fmt.Errorf("replaying custodial claim: %w", err)
		}
	}
	L["aggregator.custodial_claim_us_p50"] = quantileUs(claim, 0.50)
	L["ledger.claim_us_p50"] = quantileUs(claimReplay, 0.50)
	L["ledger.claim_us_p99"] = quantileUs(claimReplay, 0.99)

	st.mu.Lock()
	for _, sp := range st.tracedUploads {
		uploads = append(uploads, sp.dur())
	}
	st.mu.Unlock()
	// Reconciliation: the upload's stages, each at its median, over the
	// median traced upload as the uploader timed it.
	if len(uploads) > 0 {
		sum := L["photo.decode_irsp_us_p50"] + L["watermark.extract_us_p50"] + L["phash.signature_us_p50"] +
			L["aggregator.sigindex_lookup_us_p50"] + L["aggregator.status_us_p50"]
		L["trace.reconcile_frac"] = sum / quantileUs(uploads, 0.50)
	}
	return nil
}
