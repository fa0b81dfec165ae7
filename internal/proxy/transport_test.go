package proxy

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/wire"
)

// TestProxyClientFrameErrorsAreTransport: the browser-side client
// classifies failures exactly like wire.Client. A truncated, CRC-bad or
// oversized IRSW1 response and a refused connection are
// *wire.TransportError for both Validate and ValidateBatch; a
// frame-valid answer with a bad state byte arrived intact and is not.
func TestProxyClientFrameErrorsAreTransport(t *testing.T) {
	id, err := ids.New(3)
	if err != nil {
		t.Fatal(err)
	}
	whole := wire.EncodeValidateResp(nil, byte(ledger.StateActive), byte(SourceFilter), true, nil)
	crcBad := append([]byte(nil), whole...)
	crcBad[len(crcBad)-1] ^= 0x01
	cases := map[string][]byte{
		"truncated": whole[:len(whole)-1],
		"crc-bad":   crcBad,
		"oversized": make([]byte, 2<<20),
	}
	serve := func(body []byte) *Client {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", wire.ContentTypeBinary)
			w.Header().Set(wire.WireHeader, wire.WireV1)
			w.Write(body)
		}))
		t.Cleanup(srv.Close)
		return NewClient(srv.URL, wire.CodecBinary)
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			c := serve(body)
			if _, err := c.Validate(id); !isTransport(err) {
				t.Errorf("Validate: want *wire.TransportError, got %T: %v", err, err)
			}
			if _, err := c.ValidateBatch([]ids.PhotoID{id}); !isTransport(err) {
				t.Errorf("ValidateBatch: want *wire.TransportError, got %T: %v", err, err)
			}
		})
	}

	t.Run("refused", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		srv.Close()
		c := NewClient(srv.URL, wire.CodecBinary)
		if _, err := c.Validate(id); !isTransport(err) {
			t.Errorf("Validate: want *wire.TransportError, got %T: %v", err, err)
		}
		if _, err := c.ValidateBatch([]ids.PhotoID{id}); !isTransport(err) {
			t.Errorf("ValidateBatch: want *wire.TransportError, got %T: %v", err, err)
		}
	})

	t.Run("bad-state", func(t *testing.T) {
		c := serve(wire.EncodeValidateResp(nil, 0xEE, byte(SourceFilter), true, nil))
		_, err := c.Validate(id)
		if err == nil {
			t.Fatal("bad state byte accepted")
		}
		if isTransport(err) {
			t.Errorf("semantic failure misclassified as transport: %v", err)
		}
	})
}

func isTransport(err error) bool {
	var te *wire.TransportError
	return errors.As(err, &te)
}
