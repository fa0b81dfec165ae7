package proxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// Client is the browser extension's view of a proxy: Validate for a
// single image, ValidateBatch for a page-load round. It negotiates the
// codec through the same wire.Negotiator as the ledger client, so an
// extension built against a binary-capable proxy keeps working against
// an older JSON-only one (and the reverse) with identical answers, and
// its failures classify the same way (*wire.TransportError for network
// failures and damaged frames). Requests carry no deadline of their
// own; the *http.Client's settings are the only bound.
type Client struct {
	base string
	// binOK is n's negotiation state: set once the proxy has advertised
	// IRSW1, unlocking binary request bodies for the batch round.
	binOK *atomic.Bool
	n     wire.Negotiator
}

// NewClient builds a proxy client for base (e.g.
// "http://127.0.0.1:8331") preferring the given codec.
func NewClient(base string, codec wire.Codec) *Client {
	return NewClientHTTP(base, codec, &http.Client{Transport: wire.NewTransport()})
}

// NewClientHTTP is NewClient with an explicit *http.Client, e.g. to
// share a connection pool.
func NewClientHTTP(base string, codec wire.Codec, hc *http.Client) *Client {
	binOK := new(atomic.Bool)
	return &Client{base: base, binOK: binOK, n: wire.NewNegotiator(hc, codec, binOK)}
}

// Codec reports the client's preferred encoding.
func (c *Client) Codec() wire.Codec { return c.n.Codec() }

// ClientResult is one validated answer as the extension consumes it.
// Proof holds the marshaled ledger proof bytes exactly as the proxy
// sent them (nil when the answer carries none), so cross-codec
// comparisons can be byte-exact.
type ClientResult struct {
	State       ledger.State
	Source      Source
	Displayable bool
	Proof       []byte
}

// parseState inverts ledger.State.String for the JSON protocol.
func parseState(s string) (ledger.State, error) {
	for _, st := range []ledger.State{ledger.StateUnknown, ledger.StateActive,
		ledger.StateRevoked, ledger.StatePermanentlyRevoked} {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("proxy: bad state %q", s)
}

// parseSource inverts Source.String for the JSON protocol.
func parseSource(s string) (Source, error) {
	for _, src := range []Source{SourceFilter, SourceCache, SourceLedger, SourceStale} {
		if src.String() == s {
			return src, nil
		}
	}
	return 0, fmt.Errorf("proxy: bad source %q", s)
}

// fromJSON converts one JSON answer.
func fromJSON(r *ValidateResponse) (ClientResult, error) {
	st, err := parseState(r.State)
	if err != nil {
		return ClientResult{}, err
	}
	src, err := parseSource(r.Source)
	if err != nil {
		return ClientResult{}, err
	}
	return ClientResult{State: st, Source: src, Displayable: r.Displayable, Proof: r.Proof}, nil
}

// fromWire converts one IRSW1 entry, copying the proof out of the
// decode buffer.
func fromWire(v wire.ValidateWire) (ClientResult, error) {
	if v.State > byte(ledger.StatePermanentlyRevoked) {
		return ClientResult{}, fmt.Errorf("proxy: bad state byte %d", v.State)
	}
	if v.Source > byte(SourceStale) {
		return ClientResult{}, fmt.Errorf("proxy: bad source byte %d", v.Source)
	}
	res := ClientResult{
		State:       ledger.State(v.State),
		Source:      Source(v.Source),
		Displayable: v.Displayable,
	}
	if len(v.Proof) > 0 {
		res.Proof = append([]byte(nil), v.Proof...)
	}
	return res, nil
}

// Validate checks one image.
func (c *Client) Validate(id ids.PhotoID) (out ClientResult, err error) {
	err = c.n.Do(&wire.Call{
		URL:  c.base + "/v1/validate?id=" + url.QueryEscape(id.String()),
		Kind: wire.MsgValidateResp,
		OnBinary: func(payload []byte) error {
			v, err := wire.DecodeValidateResp(payload)
			if err != nil {
				return err
			}
			out, err = fromWire(v)
			return err
		},
		OnJSON: func(body io.Reader, _ http.Header) error {
			var resp ValidateResponse
			err := json.NewDecoder(body).Decode(&resp)
			if err == nil {
				out, err = fromJSON(&resp)
			}
			return err
		},
	})
	return out, err
}

// ValidateBatch checks a page worth of images in one round, answers in
// request order.
func (c *Client) ValidateBatch(batch []ids.PhotoID) ([]ClientResult, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	out := make([]ClientResult, len(batch))
	err := c.n.Do(&wire.Call{
		URL: c.base + "/v1/validate/batch",
		JSON: func() any {
			req := &ValidateBatchRequest{IDs: make([]string, len(batch))}
			for i, id := range batch {
				req.IDs[i] = id.String()
			}
			return req
		},
		Binary: func(dst []byte) []byte { return wire.EncodeValidateBatchReq(dst, batch) },
		Kind:   wire.MsgValidateBatchResp,
		OnBinary: func(payload []byte) error {
			n, err := wire.DecodeValidateBatchResp(payload, func(i int, v wire.ValidateWire) error {
				if i >= len(batch) {
					return fmt.Errorf("proxy: more results than the %d requested", len(batch))
				}
				var err error
				out[i], err = fromWire(v)
				return err
			})
			if err == nil && n != len(batch) {
				err = fmt.Errorf("proxy: %d results for %d ids", n, len(batch))
			}
			return err
		},
		OnJSON: func(body io.Reader, _ http.Header) error {
			var resp ValidateBatchResponse
			if err := json.NewDecoder(body).Decode(&resp); err != nil {
				return err
			}
			if len(resp.Results) != len(batch) {
				return fmt.Errorf("proxy: %d results for %d ids", len(resp.Results), len(batch))
			}
			for i := range resp.Results {
				var err error
				if out[i], err = fromJSON(&resp.Results[i]); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
