package main

import (
	"net/http"
	"runtime"
	"testing"

	"irs/internal/aggregator"
	"irs/internal/ids"
	"irs/internal/ledger"
	"irs/internal/proxy"
)

func quick(t *testing.T, workload string, seed int64, trace bool) *outcome {
	t.Helper()
	out, err := run(config{workload: workload, seed: seed, seconds: 1, trace: trace, workdir: t.TempDir(), gen: runtime.NumCPU()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return out
}

// TestQuickWorkloads runs each workload at quick scale with every gate
// on, untraced and traced.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out := quick(t, w, 7, trace)
			for gate, v := range out.rep.Gates {
				if v != "ok" {
					t.Errorf("%s trace=%v: gate %s: %s", w, trace, gate, v)
				}
			}
			res := contractResult(out, trace)
			want := len(e2eUnits)
			if trace {
				want = len(layerUnits)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != want {
				t.Errorf("%s trace=%v: result %+v", w, trace, res)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// TestGatesCatchWrongAnswers flips the generator's expected states on a
// live stack and tampers with a ledger proof: each gate must fail.
func TestGatesCatchWrongAnswers(t *testing.T) {
	st, err := newPageStack("browse", 3, t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, err := st.pageOp(0); err != nil {
		t.Fatal(err)
	}
	if st.mismatch != 0 {
		t.Fatalf("untampered page failed its gate: %s", st.firstBad)
	}
	for i, s := range st.states {
		if s == ledger.StateActive {
			st.states[i] = ledger.StateRevoked
		} else {
			st.states[i] = ledger.StateActive
		}
	}
	if _, err := st.pageOp(1); err != nil {
		t.Fatal(err)
	}
	if st.mismatch != 1 {
		t.Fatalf("page with flipped expected states passed the gate")
	}

	l, err := ledger.New(ledger.Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	id := ids.PhotoID{Ledger: 1, Rec: [12]byte{1}}
	p, err := l.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	good := keptProof{id: id, state: p.State, raw: p.Marshal()}
	if err := verifyProofs(l.SigningKey(), []keptProof{good}); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	tampered := good
	tampered.raw = append([]byte(nil), good.raw...)
	tampered.raw[len(tampered.raw)-1] ^= 1
	wrongID := good
	wrongID.id = ids.PhotoID{Ledger: 1, Rec: [12]byte{2}}
	wrongState := good
	wrongState.state = ledger.StateActive
	for name, k := range map[string]keptProof{"tampered": tampered, "wrong id": wrongID, "wrong state": wrongState} {
		if err := verifyProofs(l.SigningKey(), []keptProof{k}); err == nil {
			t.Errorf("%s proof passed the gate", name)
		}
	}

	if err := checkPage([]ids.PhotoID{id}, []ledger.State{ledger.StateRevoked}, []proxy.ClientResult{{State: ledger.StateActive}}); err == nil {
		t.Error("checkPage accepted a wrong state")
	}
	ref := []refDecision{{accepted: false, reason: "revoked"}, {malformed: true}}
	bad := []uploadRec{{slot: 0, status: http.StatusOK, resp: aggregator.UploadResponse{Accepted: true, Reason: "accepted"}}}
	if _, err := checkUploads(bad, ref, l); err == nil {
		t.Error("checkUploads accepted an upload the reference denies")
	}
	badMalformed := []uploadRec{{slot: 1, status: http.StatusUnprocessableEntity}}
	if _, err := checkUploads(badMalformed, ref, l); err == nil {
		t.Error("checkUploads accepted a malformed upload that was not refused")
	}
}

// TestDecisionHashDeterministic checks that one seed reproduces its
// inputs and decisions and another seed changes them.
func TestDecisionHashDeterministic(t *testing.T) {
	for _, w := range []string{"browse", "upload"} {
		a, b := quick(t, w, 11, false), quick(t, w, 11, false)
		if a.rep.DecisionHash != b.rep.DecisionHash {
			t.Errorf("%s: same seed, decision hashes %s and %s", w, a.rep.DecisionHash, b.rep.DecisionHash)
		}
		if c := quick(t, w, 12, false); c.rep.DecisionHash == a.rep.DecisionHash {
			t.Errorf("%s: seeds 11 and 12 gave the same decision hash", w)
		}
	}
}
