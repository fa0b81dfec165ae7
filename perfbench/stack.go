package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/tsa"
	"irs/internal/wire"
)

// httpNode is one loopback HTTP server of the stack.
type httpNode struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := &httpNode{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return n, nil
}

// close stops the server and waits for its accept loop to exit.
func (n *httpNode) close() {
	_ = n.srv.Close()
	<-n.done
}

// ledgerNode is a ledger served over wire the way irs-ledger runs it by
// default: the segment engine in a data directory, OS-paced WAL sync,
// 2% filter FPR, no admin token.
type ledgerNode struct {
	l    *ledger.Ledger
	http *httpNode
}

// newLedgerNode opens a ledger in dir. Identifier entropy comes from
// seed, so the claims the benchmark makes get the same IDs every run.
func newLedgerNode(id ids.LedgerID, dir string, seed int64) (*ledgerNode, error) {
	l, err := ledger.New(ledger.Config{ID: id, Dir: dir, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		return nil, fmt.Errorf("opening ledger %d: %w", id, err)
	}
	h, err := serve(wire.NewServerOpts(l, "", wire.ServerOptions{}))
	if err != nil {
		l.Close()
		return nil, err
	}
	return &ledgerNode{l: l, http: h}, nil
}

func (n *ledgerNode) close() {
	n.http.close()
	_ = n.l.Close() // the data directory is deleted with the run
}

// restore bulk-loads records in memtable-sized batches, sealing each
// into a segment when flush is set, as a replica catching up would.
func (n *ledgerNode) restore(recs []ledger.Record, flush bool) error {
	const batch = 65536 // the ledger's default memtable size
	for lo := 0; lo < len(recs); lo += batch {
		hi := min(lo+batch, len(recs))
		if err := n.l.RestoreRecords(recs[lo:hi]); err != nil {
			return fmt.Errorf("restoring records: %w", err)
		}
		if flush {
			if err := n.l.Flush(); err != nil {
				return fmt.Errorf("flushing memtable: %w", err)
			}
		}
	}
	return nil
}

// recordGen makes the population a ledger is loaded with. Records are
// complete (key, signature, timestamp) but their signatures are not
// real: restored records are never re-verified, and signing a few
// hundred thousand would dominate set-up.
type recordGen struct {
	rng *rand.Rand
	lid ids.LedgerID
	n   uint32
}

func newRecordGen(lid ids.LedgerID, seed int64) *recordGen {
	return &recordGen{rng: rand.New(rand.NewSource(seed)), lid: lid}
}

var epoch = time.Date(2022, 11, 14, 0, 0, 0, 0, time.UTC)

func (g *recordGen) next(st ledger.State) ledger.Record {
	g.n++
	rec := ledger.Record{State: st, PubKey: make([]byte, ed25519.PublicKeySize), HashSig: make([]byte, ed25519.SignatureSize)}
	rec.ID.Ledger = g.lid
	binary.BigEndian.PutUint64(rec.ID.Rec[:8], g.rng.Uint64())
	binary.BigEndian.PutUint32(rec.ID.Rec[8:], g.n) // unique within the run
	g.rng.Read(rec.PubKey)
	g.rng.Read(rec.HashSig)
	g.rng.Read(rec.ContentHash[:])
	tok := &tsa.Token{Serial: uint64(g.n), Time: epoch.Add(time.Duration(g.n) * time.Second), Sig: make([]byte, ed25519.SignatureSize)}
	g.rng.Read(tok.Digest[:])
	g.rng.Read(tok.Sig)
	rec.Timestamp = tok
	if st == ledger.StateRevoked {
		rec.OpSeq = 1
	}
	return rec
}

// ownerKey derives the key pair an owner holds for one photo from the
// run seed, so owner operations are identical across runs of a seed.
func ownerKey(seed int64, stream string, k int) ed25519.PrivateKey {
	h := sha256.New()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, k)
	return ed25519.NewKeyFromSeed(h.Sum(nil))
}

// clientFor returns an HTTP client whose pool holds at most conns
// connections per host, so the generator's connection count is bounded
// by construction.
func clientFor(conns int) *http.Client {
	tr := wire.NewTransport()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: tr}
}
