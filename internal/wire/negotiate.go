package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"irs/internal/obs"
)

// Negotiator is the client half of IRSW1 codec negotiation, shared by
// the ledger Client and the proxy's browser-facing client. A
// binary-preferring negotiator advertises IRSW1 in Accept on calls
// that have a binary form and decodes whichever encoding the response
// carries. It sends IRSW1 request bodies only once the server has
// advertised the codec (X-IRS-Wire). If a rolled-back server then
// rejects a binary body with a 4xx and no advertisement, the call is
// retried once re-encoded as JSON — safe regardless of idempotency,
// because the old server refused the body at parse time, before any
// state change — and later calls stay on JSON bodies.
type Negotiator struct {
	http  *http.Client
	codec Codec
	// binOK records whether the server has advertised IRSW1; a pointer
	// so copies (Client.WithContext) share the negotiation state.
	binOK *atomic.Bool
	// timeout bounds each exchange; <= 0 leaves the context as the only
	// bound.
	timeout time.Duration
	// ctx, when non-nil, is the base context every request derives from.
	ctx context.Context
	// obs holds pre-interned per-RPC instruments; nil disables them.
	obs *clientObs
}

// NewNegotiator builds a negotiator over hc preferring codec, with
// binOK as its negotiation state. Its requests carry no deadline of
// their own.
func NewNegotiator(hc *http.Client, codec Codec, binOK *atomic.Bool) Negotiator {
	return Negotiator{http: hc, codec: codec, binOK: binOK}
}

// Codec reports the preferred encoding.
func (n *Negotiator) Codec() Codec { return n.codec }

// Call is one negotiated exchange: a POST when it has a JSON body
// builder, a GET otherwise.
type Call struct {
	// RPC names the call's client metrics series.
	RPC string
	// URL is the full request URL.
	URL string
	// JSON builds the JSON request body.
	JSON func() any
	// Binary, on a POST, appends the IRSW1 request frame, sent in place
	// of the JSON body once the server has advertised IRSW1.
	Binary func(dst []byte) []byte
	// Auth, when set, is sent as the Authorization header.
	Auth string
	// Kind is the expected IRSW1 response message kind.
	Kind byte
	// Max bounds the response body; 0 means the RPC bound (maxBody).
	Max int
	// OnBinary decodes the IRSW1 response payload, which is valid only
	// during the call. nil means the call has no binary form: IRSW1 is
	// not advertised and every response goes to OnJSON.
	OnBinary func(payload []byte) error
	// OnJSON consumes any other 2xx response: the (bounded) body and
	// the headers. The negotiator drains and closes the body afterwards.
	OnJSON func(body io.Reader, h http.Header) error
}

// acceptValue is the Accept header a binary-preferring client sends:
// IRSW1 first, JSON as the declared fallback.
const acceptValue = ContentTypeBinary + ", " + ContentTypeJSON

// Do runs c under negotiation, with the one JSON re-send a rolled-back
// server's refusal of a binary body calls for.
func (n *Negotiator) Do(c *Call) error {
	sendBinary := c.Binary != nil && n.codec == CodecBinary && n.binOK.Load()
	advertised, err := n.once(c, sendBinary)
	if sendBinary && !advertised {
		var we *Error
		if errors.As(err, &we) && we.Code >= 400 && we.Code < 500 {
			n.binOK.Store(false)
			_, err = n.once(c, false)
		}
	}
	return err
}

// once performs one exchange, reporting whether the response
// advertised IRSW1 alongside the outcome. Network failures, bodies
// over the bound and truncated or corrupt frames are TransportErrors;
// everything the server answered or the decoders rejected is not.
func (n *Negotiator) once(c *Call, sendBinary bool) (advertised bool, err error) {
	if n.obs != nil {
		start := time.Now()
		defer func() { n.obs.observe(c.RPC, start, err) }()
	}
	method, ct := http.MethodGet, ""
	var body io.Reader
	switch {
	case sendBinary:
		bp := GetBuf()
		defer PutBuf(bp)
		*bp = c.Binary(*bp)
		method, ct, body = http.MethodPost, ContentTypeBinary, bytes.NewReader(*bp)
	case c.JSON != nil:
		b, jerr := json.Marshal(c.JSON())
		if jerr != nil {
			return false, fmt.Errorf("wire: encoding request: %w", jerr)
		}
		method, ct, body = http.MethodPost, ContentTypeJSON, bytes.NewReader(b)
	}
	ctx := n.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if n.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.timeout)
		defer cancel()
	}
	hr, err := http.NewRequestWithContext(ctx, method, c.URL, body)
	if err != nil {
		return false, err
	}
	if ct != "" {
		hr.Header.Set("Content-Type", ct)
	}
	if c.OnBinary != nil && n.codec == CodecBinary {
		hr.Header.Set("Accept", acceptValue)
	}
	if c.Auth != "" {
		hr.Header.Set("Authorization", c.Auth)
	}
	r, err := n.http.Do(hr)
	if err != nil {
		return false, callErr(hr, transportErr(err))
	}
	advertised = r.Header.Get(WireHeader) == WireV1
	if advertised {
		n.binOK.Store(true)
	}
	if r.StatusCode/100 != 2 {
		return advertised, decodeResponse(r, nil)
	}
	max := c.Max
	if max == 0 {
		max = maxBody
	}
	defer drainClose(r.Body, int64(max))
	if c.OnBinary == nil || !IsBinaryContent(r.Header.Get("Content-Type")) {
		n.obs.observeCodec(false, int(r.ContentLength))
		return advertised, c.OnJSON(io.LimitReader(r.Body, int64(max)), r.Header)
	}
	bp, err := readBodyPooled(r.Body, max)
	if err != nil {
		return advertised, callErr(hr, transportErr(err))
	}
	defer PutBuf(bp)
	n.obs.observeCodec(true, len(*bp))
	kind, payload, err := DecodeMsg(*bp, max)
	if err == nil && kind != c.Kind {
		err = ErrFrameCorrupt
	}
	if err == nil {
		err = c.OnBinary(payload)
	}
	if err != nil {
		return advertised, callErr(hr, frameErr(err))
	}
	return advertised, nil
}

// callErr prefixes err with the request line it came from.
func callErr(hr *http.Request, err error) error {
	return fmt.Errorf("wire: %s %s: %w", hr.Method, hr.URL.RequestURI(), err)
}

// decodeJSON returns an OnJSON callback decoding the body into v; a nil
// v ignores the body.
func decodeJSON(v any) func(io.Reader, http.Header) error {
	return func(body io.Reader, _ http.Header) error {
		if v == nil {
			return nil
		}
		return json.NewDecoder(body).Decode(v)
	}
}

// frameErr classifies a frame decode failure: a truncated or CRC-bad
// frame is indistinguishable from bytes lost in flight, so it becomes
// a TransportError and the retry layer's idempotency rules decide
// whether to replay. Anything else passes through unchanged.
func frameErr(err error) error {
	if errors.Is(err, ErrFrameTruncated) || errors.Is(err, ErrFrameCorrupt) {
		return &TransportError{Err: err}
	}
	return err
}

// drainClose empties (bounded) and closes a response body so the
// connection stays reusable; the binary paths share decodeResponse's
// keep-alive contract.
func drainClose(body io.ReadCloser, limit int64) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, limit))
	body.Close()
}

// readBodyPooled drains r into a pooled buffer. Steady state this
// allocates nothing: the buffer grows to the largest response seen and
// is then reused. A body exceeding max is a truncation-class transport
// failure (the peer is not speaking our protocol bounds).
func readBodyPooled(r io.Reader, max int) (*[]byte, error) {
	bp := GetBuf()
	b := *bp
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if len(b) > max {
			*bp = b
			PutBuf(bp)
			return nil, ErrFrameCorrupt
		}
		if err == io.EOF {
			*bp = b
			return bp, nil
		}
		if err != nil {
			*bp = b
			PutBuf(bp)
			return nil, err
		}
	}
}

// ServerCodec is the server half: it counts hot-route responses by
// encoding under one metric prefix — <prefix>_codec_total and
// <prefix>_tx_bytes_total, labeled codec="json"|"binary" — and writes
// IRSW1 frames from pooled buffers. Bytes are counted where the
// handler knows them (always, for binary frames).
type ServerCodec struct {
	count, tx [2]*obs.Counter
}

// NewServerCodec interns the codec counters in reg.
func NewServerCodec(reg *obs.Registry, prefix string) *ServerCodec {
	sc := &ServerCodec{}
	for i, name := range [2]string{"json", "binary"} {
		l := obs.L("codec", name)
		sc.count[i] = reg.Counter(prefix+"_codec_total", l)
		sc.tx[i] = reg.Counter(prefix+"_tx_bytes_total", l)
	}
	return sc
}

// Observe records one hot-route response's encoding; n < 0 means the
// byte count is unknown.
func (sc *ServerCodec) Observe(binary bool, n int) {
	i := 0
	if binary {
		i = 1
	}
	sc.count[i].Inc()
	if n >= 0 {
		sc.tx[i].Add(uint64(n))
	}
}

// WriteBinary writes one IRSW1 response frame built by encode into a
// pooled buffer — the steady-state zero-allocation server encode path.
func (sc *ServerCodec) WriteBinary(w http.ResponseWriter, encode func(dst []byte) []byte) {
	bp := GetBuf()
	defer PutBuf(bp)
	*bp = encode(*bp)
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(*bp)
	sc.Observe(true, n)
}
