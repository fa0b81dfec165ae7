package bloom

import (
	"errors"
	"testing"
)

// TestSyncRound drives the shared client round against scripted
// sources: each case lists the responses the source gives, in order,
// and the round must make exactly that many requests, the second one
// (if any) a cold (0, nil) request.
func TestSyncRound(t *testing.T) {
	held := mustFilter(t, 1, 2, 3)
	latest := mustFilter(t, 1, 2, 3, 4, 5)
	delta, err := DeltaWithBase(held, latest)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), delta...)
	corrupt[len(corrupt)-1] ^= 0xFF // the result hash no longer matches
	snapshot := latest.Marshal()
	down := errors.New("source down")

	type resp struct {
		payload []byte
		err     error
	}
	for _, tc := range []struct {
		name     string
		script   []resp
		current  bool
		wantErr  error
		received int
	}{
		{"already current", []resp{{nil, nil}}, true, nil, 0},
		{"v2 delta", []resp{{delta, nil}}, false, nil, len(delta)},
		{"snapshot", []resp{{snapshot, nil}}, false, nil, len(snapshot)},
		{"corrupt payload resyncs cold", []resp{{corrupt, nil}, {snapshot, nil}}, false, nil, len(corrupt) + len(snapshot)},
		{"failed cold resync", []resp{{corrupt, nil}, {nil, down}}, false, down, len(corrupt)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			fetch := func(from uint64, baseHash []byte) ([]byte, uint64, error) {
				if calls == 1 && (from != 0 || baseHash != nil) {
					t.Errorf("resync asked from=%d base=%x, want a cold request", from, baseHash)
				}
				if calls == 0 && (from != 7 || len(baseHash) != 32) {
					t.Errorf("first request from=%d with %d-byte base, want 7 and the held hash", from, len(baseHash))
				}
				r := tc.script[calls]
				calls++
				return r.payload, 8, r.err
			}
			next, epoch, received, err := Sync(fetch, 7, held)
			if calls != len(tc.script) {
				t.Errorf("%d requests, want %d", calls, len(tc.script))
			}
			if received != tc.received {
				t.Errorf("received %d bytes, want %d", received, tc.received)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err %v, want %v", err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if epoch != 8 {
				t.Errorf("epoch %d, want 8", epoch)
			}
			switch {
			case tc.current && next != held:
				t.Error("current holder got a different filter")
			case !tc.current && next.Hash() != latest.Hash():
				t.Error("round did not land on the latest filter")
			}
			if held.Hash() != mustFilter(t, 1, 2, 3).Hash() {
				t.Error("held filter was mutated")
			}
		})
	}
}

// mustFilter builds a filter of fixed parameters over keys.
func mustFilter(t *testing.T, keys ...uint64) *Filter {
	t.Helper()
	f, err := New(4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		f.Add(k)
	}
	return f
}
