package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/proxy"
	"irs/internal/wire"
)

// pageSize is how many photo identifiers one page load validates.
const pageSize = 48

// Workload shapes. Sizes are fixed so every run of a workload measures
// the same thing; only the seed changes which IDs and owners appear.
const (
	// browsePopulation is the claim population browse pages draw from
	// with Zipf(1.1); 10% are revoked at birth (§4.4).
	browsePopulation = 131072
	browseRevokedPct = 10
	browseZipfS      = 1.1

	// resolveSegRevoked revoked claims sit in segments: three times the
	// proxy cache and larger than the ledger memtable, so most IDs miss
	// the cache and are read from storage. resolveMemRevoked more stay
	// in the memtable, and resolveActive active claims fill the rest of
	// each page.
	resolveSegRevoked = 196608
	resolveMemRevoked = 16384
	resolveActive     = 32768
	resolveRevokedPer = 40 // of pageSize IDs per page

	proxyCacheEntries = 65536 // irs-proxy's deployed -cache
	proxyCacheTTL     = 5 * time.Minute

	keptProofPages = 16   // keep the proofs of every 16th page
	maxKeptProofs  = 4096 // and at most this many
)

// pageGen is the browsers' page stream: the same seed yields the same
// sequence of pages, whichever worker sends them.
type pageGen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf // browse; nil for resolve
	n    int        // pages issued
	// resolve: universe[:revoked] are revoked, the rest active.
	revoked, universe int
}

func newPageGen(workload string, seed int64, universe, revoked int) *pageGen {
	g := &pageGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed0001)), universe: universe, revoked: revoked}
	if workload == "browse" {
		g.zipf = rand.NewZipf(g.rng, browseZipfS, 1, uint64(universe-1))
	}
	return g
}

// next returns the next page's number and universe indexes.
func (g *pageGen) next() (int, []int32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	idx := make([]int32, pageSize)
	for i := range idx {
		switch {
		case g.zipf != nil:
			idx[i] = int32(g.zipf.Uint64())
		case i < resolveRevokedPer:
			idx[i] = int32(g.rng.Intn(g.revoked))
		default:
			idx[i] = int32(g.revoked + g.rng.Intn(g.universe-g.revoked))
		}
	}
	g.n++
	return g.n - 1, idx
}

// keptProof is one proof held back from the timed window for
// verification.
type keptProof struct {
	id    ids.PhotoID
	state ledger.State
	raw   []byte
}

// pageStack is the validate path as deployed: browsers → proxy.Client →
// proxy.Server (irs-proxy's config) → IRSW1 → wire.Server → ledger.
type pageStack struct {
	workload  string
	seed      int64
	node      *ledgerNode
	proxy     *proxy.Server
	proxyH    *httpNode
	dir       *wire.Directory // the proxy's ledger directory
	upHTTP    *http.Client    // the proxy's upstream connection pool
	browser   *proxy.Client
	browserHC *http.Client
	owner     wire.Service // owner software's ledger client (browse)
	ownerHC   *http.Client

	universe []ids.PhotoID
	states   []ledger.State
	memtable map[ids.PhotoID]bool // loaded after the last flush, or claimed by the owner stream
	claims   int                  // claims the ledger should hold
	gen      *pageGen
	pageWork int // page-stream goroutines

	mu        sync.Mutex
	mismatch  int
	firstBad  string
	kept      []keptProof
	pagesDone int
	// hashPages, when set, collects the IDs and decided states of
	// pages [0, len(hashPages)) for the decision hash.
	hashPages [][]byte
	// traced, when non-nil, collects every page for span matching.
	traced *[]tracedPage
}

// tracedPage is one page of the traced phase.
type tracedPage struct {
	start, end time.Time
	ids        []ids.PhotoID
}

func (s *pageStack) close() {
	s.proxyH.close()
	s.node.close()
	s.upHTTP.CloseIdleConnections()
	s.browserHC.CloseIdleConnections()
	if s.ownerHC != nil {
		s.ownerHC.CloseIdleConnections()
	}
}

// newPageStack builds the stack for browse or resolve in dir.
func newPageStack(workload string, seed int64, dir string, gen int) (*pageStack, error) {
	node, err := newLedgerNode(1, dir, seed*7+1)
	if err != nil {
		return nil, err
	}
	s := &pageStack{workload: workload, seed: seed, node: node, memtable: map[ids.PhotoID]bool{}}
	ok := false
	defer func() {
		if !ok {
			node.close()
		}
	}()
	rg := newRecordGen(1, seed*7+2)
	rng := rand.New(rand.NewSource(seed*7 + 3))
	add := func(recs []ledger.Record, st ledger.State) []ledger.Record {
		rec := rg.next(st)
		s.universe = append(s.universe, rec.ID)
		s.states = append(s.states, st)
		return append(recs, rec)
	}
	switch workload {
	case "browse":
		var recs []ledger.Record
		for i := 0; i < browsePopulation; i++ {
			st := ledger.StateActive
			if rng.Intn(100) < browseRevokedPct {
				st = ledger.StateRevoked
			}
			recs = add(recs, st)
		}
		if err := node.restore(recs, true); err != nil {
			return nil, err
		}
		s.gen = newPageGen(workload, seed, len(s.universe), 0)
		s.pageWork = max(1, gen-1) // one goroutine is the owner stream
	case "resolve":
		// Universe order: segment-resident revoked, memtable revoked,
		// then active, so pageGen can split revoked from active by index.
		var seg, mem, act []ledger.Record
		for i := 0; i < resolveSegRevoked; i++ {
			seg = add(seg, ledger.StateRevoked)
		}
		for i := 0; i < resolveMemRevoked; i++ {
			mem = add(mem, ledger.StateRevoked)
		}
		for i := 0; i < resolveActive; i++ {
			act = add(act, ledger.StateActive)
		}
		if err := node.restore(append(seg, act...), true); err != nil {
			return nil, err
		}
		if err := node.restore(mem, false); err != nil {
			return nil, err
		}
		for _, r := range mem {
			s.memtable[r.ID] = true
		}
		s.gen = newPageGen(workload, seed, len(s.universe), resolveSegRevoked+resolveMemRevoked)
		s.pageWork = gen
	default:
		return nil, fmt.Errorf("unknown page workload %q", workload)
	}
	s.claims = len(s.universe)
	// irs-ledger builds a snapshot at start so proxies can pull a filter.
	if _, err := node.l.BuildSnapshot(); err != nil {
		return nil, fmt.Errorf("initial snapshot: %w", err)
	}

	// irs-proxy: filter on, 65,536-entry cache, 5-minute TTL, IRSW1
	// upstream.
	s.upHTTP = &http.Client{Transport: wire.NewTransport()}
	s.dir = wire.NewDirectory()
	s.dir.Register(1, s.upstream(nil))
	s.proxy = proxy.NewServer(proxy.Config{CacheCapacity: proxyCacheEntries, CacheTTL: proxyCacheTTL, UseFilter: true}, s.dir)
	if err := s.proxy.Validator().RefreshFilters(s.dir); err != nil {
		return nil, fmt.Errorf("initial filter refresh: %w", err)
	}
	if s.proxyH, err = serve(s.proxy); err != nil {
		return nil, err
	}
	if err := s.warmCache(rng); err != nil {
		s.proxyH.close()
		return nil, err
	}
	s.setBrowsers(s.pageWork)
	if workload == "browse" {
		s.ownerHC = clientFor(1)
		s.owner = wire.NewClientOpts(node.http.url, "", wire.ClientOptions{HTTPClient: s.ownerHC})
	}
	ok = true
	return s, nil
}

// setBrowsers gives the page stream n goroutines sharing one pool of n
// connections to the proxy. The owner's revoke probes queue on the
// same pool like any other browser request.
func (s *pageStack) setBrowsers(n int) {
	if s.browserHC != nil {
		s.browserHC.CloseIdleConnections()
	}
	s.pageWork = n
	s.browserHC = clientFor(n)
	s.browser = proxy.NewClientHTTP(s.proxyH.url, wire.CodecBinary, s.browserHC)
}

// upstream is the proxy's client for the ledger, instrumented when reg
// is set; it shares the proxy's connection pool.
func (s *pageStack) upstream(reg *obs.Registry) *wire.Client {
	return wire.NewClientOpts(s.node.http.url, "", wire.ClientOptions{Codec: wire.CodecBinary, HTTPClient: s.upHTTP, Obs: reg})
}

// warmCache brings the proxy to the steady state of a long-running
// deployment before anything is timed: browse has every ID that needs a
// ledger answer cached (the must-query set is far below the cache
// size); resolve has a uniform random cache-sized share of the revoked
// set cached, which is where an LRU cache under uniform draws settles.
func (s *pageStack) warmCache(rng *rand.Rand) error {
	var warm []ids.PhotoID
	if s.workload == "browse" {
		warm = s.universe
	} else {
		revoked := s.universe[:resolveSegRevoked+resolveMemRevoked]
		for _, i := range rng.Perm(len(revoked))[:proxyCacheEntries] {
			warm = append(warm, revoked[i])
		}
	}
	v := s.proxy.Validator()
	for lo := 0; lo < len(warm); lo += wire.MaxStatusBatch {
		if _, err := v.ValidateBatch(warm[lo:min(lo+wire.MaxStatusBatch, len(warm))]); err != nil {
			return fmt.Errorf("warming proxy cache: %w", err)
		}
	}
	return nil
}

// pageOp sends the next page of the stream and checks its answers once
// the page is timed.
func (s *pageStack) pageOp(int) (time.Time, error) {
	k, idx := s.gen.next()
	batch := make([]ids.PhotoID, len(idx))
	for i, j := range idx {
		batch[i] = s.universe[j]
	}
	start := time.Now()
	res, err := s.browser.ValidateBatch(batch)
	end := time.Now()
	if err != nil {
		return end, err
	}
	s.record(k, idx, batch, res, start, end)
	return end, nil
}

func (s *pageStack) record(k int, idx []int32, batch []ids.PhotoID, res []proxy.ClientResult, start, end time.Time) {
	want := make([]ledger.State, len(idx))
	for i, j := range idx {
		want[i] = s.states[j]
	}
	bad := checkPage(batch, want, res)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pagesDone++
	if bad != nil {
		s.mismatch++
		if s.firstBad == "" {
			s.firstBad = bad.Error()
		}
	}
	if k%keptProofPages == 0 {
		for i, r := range res {
			if r.Proof != nil && len(s.kept) < maxKeptProofs {
				s.kept = append(s.kept, keptProof{id: batch[i], state: r.State, raw: r.Proof})
			}
		}
	}
	if k < len(s.hashPages) {
		d := make([]byte, 0, len(res)*17)
		for i, r := range res {
			b := batch[i].Bytes()
			d = append(append(d, b[:]...), byte(r.State))
		}
		s.hashPages[k] = d
	}
	if s.traced != nil {
		*s.traced = append(*s.traced, tracedPage{start: start, end: end, ids: batch})
	}
}

// checkPage is the page gate: every answer must be the state the
// generator gave that ID.
func checkPage(batch []ids.PhotoID, want []ledger.State, got []proxy.ClientResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("page of %d IDs got %d answers", len(want), len(got))
	}
	for i := range want {
		if got[i].State != want[i] {
			return fmt.Errorf("ID %s answered %s, generator holds %s", batch[i], got[i].State, want[i])
		}
	}
	return nil
}

// verifyProofs is the proof gate: every kept proof must name the
// requested ID, carry the decided state, and verify under the ledger's
// signing key.
func verifyProofs(pub ed25519.PublicKey, kept []keptProof) error {
	for _, k := range kept {
		p, err := ledger.UnmarshalProof(k.raw)
		if err != nil {
			return fmt.Errorf("proof for %s: %w", k.id, err)
		}
		if p.ID != k.id {
			return fmt.Errorf("proof for %s names %s", k.id, p.ID)
		}
		if p.State != k.state {
			return fmt.Errorf("proof for %s says %s, answer said %s", k.id, p.State, k.state)
		}
		if err := ledger.VerifyProof(pub, p, time.Now(), 0); err != nil {
			return fmt.Errorf("proof for %s: %w", k.id, err)
		}
	}
	return nil
}

// ownerStream is browse's low-rate owner traffic: each even op claims a
// new photo, each odd op revokes the photo claimed just before it —
// photos no page shows. A revocation is followed by one sync round
// (ledger snapshot, proxy filter refresh) and proxy probes until the
// proxy answers Revoked.
type ownerStream struct {
	s     *pageStack
	svc   wire.Service
	owned map[int]ownedPhoto

	claims        int
	visible       []time.Duration
	snapshots     []time.Duration
	refreshes     []time.Duration
	neverVisible  int
	log           []byte // op outcomes, for the decision hash
	firstErr      error
	tracedClaims  []span
	tracedApplies []span
	trace         atomic.Bool // record owner RPC spans
}

type ownedPhoto struct {
	id   ids.PhotoID
	priv ed25519.PrivateKey
}

func newOwnerStream(s *pageStack) *ownerStream {
	return &ownerStream{s: s, svc: s.owner, owned: map[int]ownedPhoto{}}
}

// maxProbes bounds the wait for a revocation to show; the sync round
// has already run, so the first probe should answer Revoked.
const maxProbes = 200

func (o *ownerStream) op(k int) (time.Time, error) {
	j := k / 2
	if k%2 == 0 {
		return o.claim(j)
	}
	return o.revoke(j)
}

func (o *ownerStream) fail(err error) (time.Time, error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
	return time.Time{}, err
}

func (o *ownerStream) claim(j int) (time.Time, error) {
	priv := ownerKey(o.s.seed, "owner", j)
	hash := sha256.Sum256([]byte(fmt.Sprintf("owner-photo/%d/%d", o.s.seed, j)))
	req := &wire.ClaimRequest{
		ContentHash: hash[:],
		PubKey:      priv.Public().(ed25519.PublicKey),
		HashSig:     ed25519.Sign(priv, ledger.ClaimMsg(hash)),
	}
	start := time.Now()
	r, err := o.svc.Claim(req)
	end := time.Now()
	if err != nil {
		return o.fail(fmt.Errorf("owner claim %d: %w", j, err))
	}
	o.s.memtable[r.ID] = true // read only after the stream stops
	if o.trace.Load() {
		o.tracedClaims = append(o.tracedClaims, span{start: start, end: end, claim: req, id: r.ID})
	}
	o.claims++
	o.owned[j] = ownedPhoto{id: r.ID, priv: priv}
	b := r.ID.Bytes()
	o.log = append(append(o.log, 'c'), b[:]...)
	return end, nil
}

func (o *ownerStream) revoke(j int) (time.Time, error) {
	p, ok := o.owned[j]
	if !ok {
		return o.fail(fmt.Errorf("owner revoke %d: photo was never claimed", j))
	}
	delete(o.owned, j)
	sig := ed25519.Sign(p.priv, ledger.OpMsg(p.id, ledger.OpRevoke, 1))
	start := time.Now()
	if err := o.svc.Apply(p.id, ledger.OpRevoke, 1, sig); err != nil {
		return o.fail(fmt.Errorf("owner revoke %d: %w", j, err))
	}
	ack := time.Now()
	if o.trace.Load() {
		o.tracedApplies = append(o.tracedApplies, span{start: start, end: ack, id: p.id, sig: sig})
	}
	// One sync round, as the ledger's and proxy's timers would run it.
	var err error
	o.snapshots = append(o.snapshots, timeCall(func() { _, err = o.s.node.l.BuildSnapshot() }))
	if err != nil {
		return o.fail(fmt.Errorf("snapshot after revoke %d: %w", j, err))
	}
	o.refreshes = append(o.refreshes, timeCall(func() { err = o.s.proxy.Validator().RefreshFilters(o.s.dir) }))
	if err != nil {
		return o.fail(fmt.Errorf("filter refresh after revoke %d: %w", j, err))
	}
	for probe := 0; probe < maxProbes; probe++ {
		r, err := o.s.browser.Validate(p.id)
		if err != nil {
			return o.fail(fmt.Errorf("probe after revoke %d: %w", j, err))
		}
		if r.State == ledger.StateRevoked {
			o.visible = append(o.visible, time.Since(ack))
			b := p.id.Bytes()
			o.log = append(append(o.log, 'r'), b[:]...)
			return ack, nil
		}
	}
	o.neverVisible++
	return ack, errors.New("revocation never became visible at the proxy")
}
