package bloom

// SyncFunc is one request of the filter sync protocol (wire.Service's
// FilterSync, ledger.Ledger's, or a topology tier's): present the held
// epoch and the hash of the held filter — 0 and nil for a cold start —
// and receive an ApplyUpdate payload, empty when the holder is current,
// plus the latest epoch.
type SyncFunc func(from uint64, baseHash []byte) (payload []byte, latest uint64, err error)

// Sync runs the client side of one sync round for a holder of filter f
// at epoch held (f nil before the first round). It presents held and
// f's hash and applies the payload. A payload that does not apply — a
// corrupt frame, a delta against a base the holder does not have — is
// answered by one cold request for a standalone snapshot, so a round
// converges whenever the source serves at all. next == f means the
// source reported the holder current; f itself is never mutated.
// received counts the payload bytes that came back, on error too.
func Sync(fetch SyncFunc, held uint64, f *Filter) (next *Filter, latest uint64, received int, err error) {
	var baseHash []byte
	if f != nil {
		h := f.Hash()
		baseHash = h[:]
	}
	payload, latest, err := fetch(held, baseHash)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(payload) == 0 {
		return f, latest, 0, nil
	}
	received = len(payload)
	if next, err = ApplyUpdate(f, payload); err == nil {
		return next, latest, received, nil
	}
	payload, latest, err = fetch(0, nil)
	received += len(payload)
	if err != nil {
		return nil, 0, received, err
	}
	if next, err = ApplyUpdate(nil, payload); err != nil {
		return nil, 0, received, err
	}
	return next, latest, received, nil
}
