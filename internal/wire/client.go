package wire

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/obs"
	"irs/internal/tsa"
)

// DefaultTimeout bounds one request/response exchange when the caller
// does not configure one. Serving-path callers that care about tail
// latency (the proxy, the retry layer) configure something far shorter;
// this is the safety net for interactive tools.
const DefaultTimeout = 30 * time.Second

// ClientOptions tunes a Client beyond the defaults.
type ClientOptions struct {
	// Timeout bounds each request/response exchange. 0 means
	// DefaultTimeout; negative disables the deadline entirely (the
	// caller's context is then the only bound).
	Timeout time.Duration
	// HTTPClient overrides the underlying transport, e.g. to share a
	// connection pool across clients. Its own Timeout field is left
	// alone; the Client applies its deadline per request via context.
	HTTPClient *http.Client
	// Obs, when non-nil, interns per-RPC latency histograms and
	// result-class counters (irs_wire_client_*) in the given registry.
	// nil disables client instrumentation at zero per-call cost.
	Obs *obs.Registry
	// Codec selects the hot-RPC encoding. CodecJSON (the zero value)
	// speaks the compatibility protocol everywhere; CodecBinary
	// advertises IRSW1 on Status/StatusBatch/FilterSync and upgrades
	// request bodies once the server has been seen to speak it. The
	// choice is invisible to callers: same Service surface, same
	// results, same error classification.
	Codec Codec
}

// NewTransport returns the http.Transport the package's clients use
// when the caller does not supply one: DefaultTransport semantics with
// the idle pool sized for grouped batch fan-out. The stock
// MaxIdleConnsPerHost of 2 makes a proxy running 8+ batch workers
// against one ledger discard most connections at return time, paying a
// fresh TCP handshake per page; the serving path keeps every worker's
// connection warm instead.
func NewTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 64
	tr.IdleConnTimeout = 90 * time.Second
	return tr
}

// clientRPCs is the fixed RPC name set; instruments are interned once
// per client at construction, never per call.
var clientRPCs = []string{
	"claim", "op", "status", "status_batch", "seq",
	"keys", "filter_sync", "admin_revoke",
}

// rpcInstruments is one RPC's pre-interned series.
type rpcInstruments struct {
	lat                     *obs.Histogram
	ok, protocol, transport *obs.Counter
}

// clientObs maps RPC names to instruments; a nil *clientObs is the
// disabled state.
type clientObs struct {
	rpcs map[string]*rpcInstruments
	// codec[0] counts responses decoded as JSON, codec[1] as IRSW1;
	// rxBytes mirrors that split for response payload bytes where the
	// size is known (always, for binary).
	codec   [2]*obs.Counter
	rxBytes [2]*obs.Counter
}

func newClientObs(reg *obs.Registry) *clientObs {
	co := &clientObs{rpcs: make(map[string]*rpcInstruments, len(clientRPCs))}
	for _, rpc := range clientRPCs {
		l := obs.L("rpc", rpc)
		co.rpcs[rpc] = &rpcInstruments{
			lat:       reg.Histogram("irs_wire_client_seconds", nil, l),
			ok:        reg.Counter("irs_wire_client_requests_total", l, obs.L("class", "ok")),
			protocol:  reg.Counter("irs_wire_client_requests_total", l, obs.L("class", "protocol")),
			transport: reg.Counter("irs_wire_client_requests_total", l, obs.L("class", "transport")),
		}
	}
	for i, name := range [2]string{"json", "binary"} {
		l := obs.L("codec", name)
		co.codec[i] = reg.Counter("irs_wire_client_codec_total", l)
		co.rxBytes[i] = reg.Counter("irs_wire_client_rx_bytes_total", l)
	}
	return co
}

// observeCodec records one decoded response's encoding and size; n < 0
// means the size is unknown.
func (co *clientObs) observeCodec(binary bool, n int) {
	if co == nil {
		return
	}
	i := 0
	if binary {
		i = 1
	}
	co.codec[i].Inc()
	if n >= 0 {
		co.rxBytes[i].Add(uint64(n))
	}
}

// observe records one finished RPC. Classes: "ok" for a successful
// exchange, "transport" when the request or response failed to move
// over the network, "protocol" for everything the server (or response
// validation) rejected.
func (co *clientObs) observe(rpc string, start time.Time, err error) {
	if co == nil {
		return
	}
	ri := co.rpcs[rpc]
	if ri == nil {
		return
	}
	ri.lat.Observe(time.Since(start).Seconds())
	var te *TransportError
	switch {
	case err == nil:
		ri.ok.Inc()
	case errors.As(err, &te):
		ri.transport.Inc()
	default:
		ri.protocol.Inc()
	}
}

// TransportError marks a failure moving a request or response over the
// network, as opposed to a protocol-level *Error answered by the
// server. PreSend reports that the failure happened before the request
// could have reached the server — dial/connection-refused class — which
// makes a retry safe even for non-idempotent verbs like Claim.
type TransportError struct {
	PreSend bool
	Err     error
}

// Error implements the error interface.
func (e *TransportError) Error() string { return fmt.Sprintf("wire: transport: %v", e.Err) }

// Unwrap exposes the underlying network error.
func (e *TransportError) Unwrap() error { return e.Err }

// preSendFailure reports whether err shows the request never left the
// client: a dial-phase failure means no connection existed to carry it.
func preSendFailure(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// transportErr wraps a client-side HTTP failure with its pre-send
// classification, preserving the original chain.
func transportErr(err error) error {
	return &TransportError{PreSend: preSendFailure(err), Err: err}
}

// Client speaks the ledger protocol. It is safe for concurrent use.
type Client struct {
	base  string
	admin string
	// binOK is n's negotiation state: whether the server has advertised
	// IRSW1.
	binOK *atomic.Bool
	n     Negotiator
}

// NewClient creates a client for the ledger at base (e.g.
// "http://127.0.0.1:8330"). adminToken may be empty for non-appeals
// callers.
func NewClient(base string, adminToken string) *Client {
	return NewClientOpts(base, adminToken, ClientOptions{})
}

// NewClientOpts creates a client with explicit options.
func NewClientOpts(base string, adminToken string, opts ClientOptions) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: NewTransport()}
	}
	c := &Client{base: base, admin: adminToken, binOK: new(atomic.Bool)}
	c.n = NewNegotiator(hc, opts.Codec, c.binOK)
	c.n.timeout = opts.Timeout
	if c.n.timeout == 0 {
		c.n.timeout = DefaultTimeout
	}
	if opts.Obs != nil {
		c.n.obs = newClientObs(opts.Obs)
	}
	return c
}

// Codec reports the client's preferred hot-RPC encoding.
func (c *Client) Codec() Codec { return c.n.codec }

// Base returns the base URL the client targets.
func (c *Client) Base() string { return c.base }

// WithContext returns a copy of the client whose requests derive from
// ctx — cancel the context and in-flight calls abort. The retry layer
// uses this to enforce per-attempt deadlines.
func (c *Client) WithContext(ctx context.Context) Service {
	cp := *c
	cp.n.ctx = ctx
	return &cp
}

func (c *Client) postJSON(rpc, path string, req, resp any, auth string) error {
	return c.n.Do(&Call{RPC: rpc, URL: c.base + path, Auth: auth,
		JSON: func() any { return req }, OnJSON: decodeJSON(resp)})
}

func (c *Client) getJSON(rpc, path string, resp any) error {
	return c.n.Do(&Call{RPC: rpc, URL: c.base + path, OnJSON: decodeJSON(resp)})
}

// Claim registers a photo and returns the receipt.
func (c *Client) Claim(req *ClaimRequest) (ledger.Receipt, error) {
	var resp ClaimResponse
	if err := c.postJSON("claim", "/v1/claim", req, &resp, ""); err != nil {
		return ledger.Receipt{}, err
	}
	id, err := ids.Parse(resp.ID)
	if err != nil {
		return ledger.Receipt{}, fmt.Errorf("wire: server returned bad id: %w", err)
	}
	tok, err := tsa.Unmarshal(resp.Timestamp)
	if err != nil {
		return ledger.Receipt{}, fmt.Errorf("wire: server returned bad timestamp: %w", err)
	}
	return ledger.Receipt{ID: id, Timestamp: tok}, nil
}

// Apply submits a signed revoke/unrevoke.
func (c *Client) Apply(id ids.PhotoID, op ledger.Op, seq uint64, sig []byte) error {
	return c.postJSON("op", "/v1/op", &OpRequest{ID: id.String(), Op: int(op), Seq: seq, Sig: sig}, nil, "")
}

// Status validates a claim, returning the parsed signed proof.
func (c *Client) Status(id ids.PhotoID) (*ledger.StatusProof, error) {
	var proof *ledger.StatusProof
	err := c.n.Do(&Call{
		RPC: "status", URL: c.base + "/v1/status?id=" + url.QueryEscape(id.String()),
		Kind: MsgStatusResp,
		OnBinary: func(payload []byte) error {
			raw, err := DecodeStatusResp(payload)
			if err != nil {
				return err
			}
			proof, err = ledger.UnmarshalProof(raw)
			return err
		},
		OnJSON: func(body io.Reader, _ http.Header) error {
			var resp StatusResponse
			if err := json.NewDecoder(body).Decode(&resp); err != nil {
				return err
			}
			var err error
			proof, err = ledger.UnmarshalProof(resp.Proof)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	return proof, nil
}

// StatusBatch validates up to MaxStatusBatch claims in one POST,
// returning parsed proofs in request order. The response is rejected
// unless it carries exactly one well-formed proof per requested
// identifier, each attesting the identifier it was asked about.
func (c *Client) StatusBatch(batch []ids.PhotoID) ([]*ledger.StatusProof, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	if len(batch) > MaxStatusBatch {
		return nil, fmt.Errorf("wire: batch of %d exceeds limit %d", len(batch), MaxStatusBatch)
	}
	proofs := make([]*ledger.StatusProof, len(batch))
	err := c.n.Do(&Call{
		RPC: "status_batch", URL: c.base + "/v1/status/batch",
		JSON: func() any {
			req := &StatusBatchRequest{IDs: make([]string, len(batch))}
			for i, id := range batch {
				req.IDs[i] = id.String()
			}
			return req
		},
		Binary: func(dst []byte) []byte { return EncodeStatusBatchReq(dst, batch) },
		Kind:   MsgStatusBatchResp,
		OnBinary: func(payload []byte) error {
			n, err := DecodeStatusBatchResp(payload, func(i int, raw []byte) error {
				if i >= len(batch) {
					return fmt.Errorf("wire: server returned more proofs than the %d requested", len(batch))
				}
				return checkProof(batch, i, raw, proofs)
			})
			if err == nil && n != len(batch) {
				err = fmt.Errorf("wire: server returned %d proofs for %d ids", n, len(batch))
			}
			return err
		},
		OnJSON: func(body io.Reader, _ http.Header) error {
			var resp StatusBatchResponse
			if err := json.NewDecoder(body).Decode(&resp); err != nil {
				return err
			}
			if len(resp.Proofs) != len(batch) {
				return fmt.Errorf("wire: server returned %d proofs for %d ids", len(resp.Proofs), len(batch))
			}
			for i, raw := range resp.Proofs {
				if err := checkProof(batch, i, raw, proofs); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return proofs, nil
}

// checkProof parses one raw proof, rejects it unless it attests the
// identifier it was asked about, and stores it at index i.
func checkProof(batch []ids.PhotoID, i int, raw []byte, out []*ledger.StatusProof) error {
	p, err := ledger.UnmarshalProof(raw)
	if err != nil {
		return fmt.Errorf("wire: server returned bad proof %d: %w", i, err)
	}
	if p.ID != batch[i] {
		return fmt.Errorf("wire: proof %d attests %s, want %s", i, p.ID, batch[i])
	}
	out[i] = p
	return nil
}

// Seq fetches the current operation sequence for owner-side signing.
func (c *Client) Seq(id ids.PhotoID) (uint64, error) {
	var resp SeqQueryResponse
	if err := c.getJSON("seq", "/v1/seq?id="+url.QueryEscape(id.String()), &resp); err != nil {
		return 0, err
	}
	return resp.Seq, nil
}

// Keys fetches the ledger's verification keys.
func (c *Client) Keys() (*KeysResponse, error) {
	var resp KeysResponse
	if err := c.getJSON("keys", "/v1/keys", &resp); err != nil {
		return nil, err
	}
	if len(resp.SigningKey) != ed25519.PublicKeySize || len(resp.TimestampKey) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("wire: server returned malformed keys")
	}
	return &resp, nil
}

// maxFilterBytes bounds filter sync bodies; the bootstrap design tops
// out at proxy-held filters, so 1 GiB mirrors the paper's largest
// browser-resident filter.
const maxFilterBytes = 1 << 30

// FilterSync runs one round of the versioned sync protocol: the held
// epoch and base-filter hash go up, an ApplyUpdate payload (or nothing,
// if current) comes back.
func (c *Client) FilterSync(from uint64, baseHash []byte) (payload []byte, latest uint64, err error) {
	err = c.n.Do(&Call{
		RPC: "filter_sync",
		URL: c.base + "/v1/filter/sync?from=" + strconv.FormatUint(from, 10) +
			"&base=" + hex.EncodeToString(baseHash),
		Kind: MsgFilterSyncResp,
		Max:  maxFilterBytes,
		OnBinary: func(p []byte) error {
			lat, upd, err := DecodeFilterSyncResp(p)
			if err != nil {
				return err
			}
			latest = lat
			if len(upd) > 0 {
				// upd aliases the pooled decode buffer; the sync payload
				// outlives this call.
				payload = append([]byte(nil), upd...)
			}
			return nil
		},
		// The JSON codec's shape: raw octet-stream body, epoch in the
		// X-IRS-Epoch header.
		OnJSON: func(body io.Reader, h http.Header) error {
			epoch, err := strconv.ParseUint(h.Get("X-IRS-Epoch"), 10, 64)
			if err != nil {
				return fmt.Errorf("wire: missing epoch header on filter sync")
			}
			raw, err := io.ReadAll(body)
			if err != nil {
				return transportErr(err)
			}
			latest = epoch
			if len(raw) > 0 {
				payload = raw
			}
			return nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	return payload, latest, nil
}

// PermanentRevoke invokes the admin endpoint; the client must have been
// constructed with the ledger's admin token.
func (c *Client) PermanentRevoke(id ids.PhotoID) error {
	return c.postJSON("admin_revoke", "/v1/admin/permanent-revoke",
		&AdminRevokeRequest{ID: id.String()}, nil, "Bearer "+c.admin)
}

// Directory maps ledger identifiers to Service instances, letting any
// validator route a PhotoID to its issuing ledger without external
// lookups (the ledger ID rides in the identifier's high bits). Safe for
// concurrent use: Register may race the read paths (the proxy registers
// recovering ledgers while RefreshFilters fans out over the rest).
type Directory struct {
	mu      sync.RWMutex
	clients map[ids.LedgerID]Service
}

// NewDirectory builds an empty directory.
func NewDirectory() *Directory {
	return &Directory{clients: make(map[ids.LedgerID]Service)}
}

// Register adds or replaces a ledger's service.
func (d *Directory) Register(id ids.LedgerID, c Service) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clients[id] = c
}

// For routes an identifier to its ledger's service.
func (d *Directory) For(id ids.PhotoID) (Service, error) {
	return d.ForLedger(id.Ledger)
}

// ForLedger routes a ledger identifier to its service; grouped batch
// queries resolve their per-ledger target through this.
func (d *Directory) ForLedger(lid ids.LedgerID) (Service, error) {
	d.mu.RLock()
	c, ok := d.clients[lid]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: no ledger registered for id %d", lid)
	}
	return c, nil
}

// All returns a snapshot copy of every registered service, for filter
// aggregation sweeps.
func (d *Directory) All() map[ids.LedgerID]Service {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[ids.LedgerID]Service, len(d.clients))
	for k, v := range d.clients {
		out[k] = v
	}
	return out
}
