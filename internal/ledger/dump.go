package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// State equivalence. StateHash reduces the ledger's full claim state —
// every record's newest version, in identifier order — to one SHA-256.
// The walk is canonical (sorted by ID bytes, canonical binary payload
// encoding), so two ledgers built from the same records hash alike
// regardless of engine, shard count, flush timing, or compaction
// history. The crash-injection suite and the storage bench's
// equivalence gate are both built on this.

// walkState visits the newest version of every record in ascending ID
// order. Under the segment engine the walk merges a frozen memtable
// copy with the live segment list; elsewhere every record is resident.
func (l *Ledger) walkState(fn func(*Record) error) error {
	var mem []*Record
	var segs []*segReader
	if e, ok := l.store.(*segEngine); ok {
		// Exclude flush/compaction while capturing the (memtable, segment
		// list) pair; the merge itself runs on immutable inputs. Retired
		// segments stay mapped until Close, so a compaction racing the
		// merge cannot invalidate the captured list.
		e.mu.Lock()
		unlock := l.lockAllShards()
		for i := range l.shards {
			for _, rec := range l.shards[i].records {
				cp := *rec
				mem = append(mem, &cp)
			}
		}
		segs = *e.segs.Load()
		unlock()
		e.mu.Unlock()
	} else {
		unlock := l.lockAllShards()
		for i := range l.shards {
			for _, rec := range l.shards[i].records {
				cp := *rec
				mem = append(mem, &cp)
			}
		}
		unlock()
	}
	sort.Slice(mem, func(a, b int) bool { return idLess(mem[a].ID, mem[b].ID) })
	return mergeSegments(mem, segs, fn)
}

// StateHash returns the canonical digest of the full claim state.
func (l *Ledger) StateHash() ([32]byte, error) {
	h := sha256.New()
	var n [4]byte
	err := l.walkState(func(rec *Record) error {
		payload, err := appendClaimPayload(nil, rec)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
		h.Write(n[:])
		h.Write(payload)
		return nil
	})
	var sum [32]byte
	if err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// RestoreRecords bulk-loads fully formed claim records, bypassing the
// Ed25519 verification the public Claim path performs — the ingest path
// for replication and for the storage bench, which must feed byte-
// identical records to both engines. Identifiers must be unique and
// routed to this ledger; callers must not operate on a restored record
// until the call returns, and on error the ledger should be discarded
// (memory and log may disagree).
func (l *Ledger) RestoreRecords(recs []Record) error {
	n := uint64(len(recs))
	if n == 0 {
		return nil
	}
	switch st := l.store.(type) {
	case *segEngine:
		return l.restoreSegments(st, recs)
	case *jsonStore:
		for i := range recs {
			cp := recs[i]
			sh := l.shardFor(cp.ID)
			sh.mu.Lock()
			sh.records[cp.ID] = &cp
			if cp.State == StateRevoked || cp.State == StatePermanentlyRevoked {
				sh.revoked[cp.ID] = true
			} else {
				delete(sh.revoked, cp.ID)
			}
			err := st.w.append(&walEntry{
				T:         "claim",
				ID:        cp.ID.String(),
				PubKey:    cp.PubKey,
				HashSig:   cp.HashSig,
				Hash:      cp.ContentHash[:],
				Token:     cp.Timestamp.Marshal(),
				State:     int(cp.State),
				Custodial: cp.Custodial,
				Seq:       cp.OpSeq,
			})
			sh.mu.Unlock()
			if err != nil {
				return err
			}
		}
		l.metrics.claims.Add(n)
		return nil
	default: // in-memory
		for i := range recs {
			cp := recs[i]
			sh := l.shardFor(cp.ID)
			sh.mu.Lock()
			sh.records[cp.ID] = &cp
			if cp.State == StateRevoked || cp.State == StatePermanentlyRevoked {
				sh.revoked[cp.ID] = true
			} else {
				delete(sh.revoked, cp.ID)
			}
			sh.mu.Unlock()
		}
		l.metrics.claims.Add(n)
		return nil
	}
}

// restoreSegments is RestoreRecords on the segment engine. Publishing
// the records, appending their WAL frames and bumping claimCount must
// be one step with respect to a flush freeze: a flush cutting in after
// the append but before the count seals the batch under a manifest
// count that misses it, and the pre-rotation WAL holding its frames is
// then dropped, so Count comes back short by the batch after reopen.
// The touched shards therefore stay write-locked until the count
// covers the batch. They are taken in ascending index order, the order
// lockAllShards read-locks them in, so the freeze cannot deadlock
// against us.
func (l *Ledger) restoreSegments(st *segEngine, recs []Record) error {
	groups := make([][]int, len(l.shards))
	for i := range recs {
		s := recs[i].ID.Hash64() & l.shardMask
		groups[s] = append(groups[s], i)
	}
	var frames []byte
	var err error
	for s, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sh := &l.shards[s]
		sh.mu.Lock()
		defer sh.mu.Unlock() // held until the count covers the batch
		for _, i := range idxs {
			cp := recs[i]
			frames, err = appendClaimFrame(frames, &cp)
			if err != nil {
				return err
			}
			sh.records[cp.ID] = &cp
			if cp.State == StateRevoked || cp.State == StatePermanentlyRevoked {
				sh.revoked[cp.ID] = true
			} else {
				// Restoring a newer active version must clear any stale
				// revoked-index entry, or future filter snapshots keep
				// flagging a claim that is no longer revoked.
				delete(sh.revoked, cp.ID)
			}
		}
	}
	n := uint64(len(recs))
	if err := st.wal.append(frames, len(recs)); err != nil {
		return err
	}
	if st.restoreHook != nil {
		st.restoreHook()
	}
	st.claimCount.Add(n)
	l.metrics.claims.Add(n)
	if st.memRecs.Add(int64(n)) >= st.flushLimit {
		st.maybeFlush() // starts a background flush; never blocks
	}
	return nil
}
