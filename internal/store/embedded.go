// The embedded backend: a single-file, log-structured, binary store that
// two daemons may open concurrently. It exists for the deployment the
// JSONL format cannot serve: several alsd processes on one host sharing
// one dedup cache through the filesystem, with no external database.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/journal"
)

// embMagic is the file-format header Open sniffs to auto-detect an
// embedded store. JSONL records always start with '{', so the formats can
// never be confused.
const embMagic = "ALSEMBED1\n"

// Frame sanity bounds. A header whose lengths exceed them is treated as a
// torn tail, not a record.
const (
	embMaxKey = 4 << 10
	embMaxVal = 64 << 20
)

// embeddedBackend appends length-prefixed, CRC-framed records to one
// file:
//
//	magic "ALSEMBED1\n"
//	record := keyLen(u32 LE) valLen(u32 LE) key val crc32(u32 LE, IEEE(key‖val))
//
// Crash safety: a process killed mid-append leaves a torn frame at the
// tail; the CRC (or an implausible header) detects it, readers stop at
// the last whole record, and the next exclusive-lock operation truncates
// the garbage before appending. Every record before the tail is kept.
//
// Multi-process safety: every write takes an exclusive flock(2) on the
// file and every cold read a shared one, and each operation first
// re-scans the log from the last known-good offset — appends are the only
// mutation, so another daemon's writes are picked up incrementally, never
// re-read from the start. Within a process the index's mutex serializes
// operations.
type embeddedBackend struct {
	index
	path    string
	f       *os.File
	corrupt int
	off     int64 // end of the last whole record we have parsed
}

func openEmbedded(path string) (*embeddedBackend, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	b := &embeddedBackend{path: path, f: f}
	if err := journal.Lock(f, true, true); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	defer journal.Unlock(f) //nolint:errcheck // advisory unlock; close drops it anyway
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteAt([]byte(embMagic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: write magic: %w", err)
		}
	} else {
		hdr := make([]byte, len(embMagic))
		if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != embMagic {
			f.Close()
			return nil, fmt.Errorf("store: %s is not an embedded store (bad or short magic header)", path)
		}
	}
	b.off = int64(len(embMagic))
	if err := b.refreshLocked(true); err != nil {
		f.Close()
		return nil, err
	}
	return b, nil
}

// refreshLocked parses records from b.off to EOF into the index. The
// caller holds b.mu and an flock (shared is enough to read; heal requires
// exclusive). With heal set, a torn tail is counted corrupt and truncated
// so the next append lands on a record boundary; without it (shared lock)
// the garbage is simply not advanced over.
func (b *embeddedBackend) refreshLocked(heal bool) error {
	end, err := b.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("store: seek %s: %w", b.path, err)
	}
	if end < b.off {
		// The file shrank under us — some other tool truncated it. Refuse
		// to guess; re-opening rebuilds a consistent index.
		return fmt.Errorf("store: %s shrank from offset %d to %d (truncated by another process?)", b.path, b.off, end)
	}
	r := bufio.NewReader(io.NewSectionReader(b.f, b.off, end-b.off))
	off := b.off
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn header
		}
		klen := binary.LittleEndian.Uint32(hdr[0:4])
		vlen := binary.LittleEndian.Uint32(hdr[4:8])
		if klen == 0 || klen > embMaxKey || vlen > embMaxVal || 8+int64(klen)+int64(vlen)+4 > end-off {
			break // implausible header, or a frame longer than the file: torn tail
		}
		buf := make([]byte, int(klen)+int(vlen)+4)
		if _, err := io.ReadFull(r, buf); err != nil {
			break
		}
		body := buf[:klen+vlen]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[klen+vlen:]) {
			break
		}
		b.setLocked(string(buf[:klen]), buf[klen:klen+vlen])
		off += 8 + int64(len(buf))
	}
	b.off = off
	if end > off && heal {
		// Torn tail from a crashed writer. We hold the exclusive lock, so
		// no live writer can be mid-append: truncate the garbage away.
		b.corrupt++
		if err := b.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail of %s: %w", b.path, err)
		}
	}
	return nil
}

func (b *embeddedBackend) Get(hash string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p, ok := b.mem[hash]; ok {
		return p, true, nil
	}
	if b.f == nil {
		return nil, false, nil
	}
	// Cold miss: another process may have appended it. Rescan the tail
	// under a shared lock, then decide.
	if err := journal.Lock(b.f, false, true); err != nil {
		return nil, false, fmt.Errorf("store: lock %s: %w", b.path, err)
	}
	err := b.refreshLocked(false)
	journal.Unlock(b.f) //nolint:errcheck // advisory unlock
	if err != nil {
		return nil, false, err
	}
	p, ok := b.mem[hash]
	return p, ok, nil
}

func (b *embeddedBackend) Put(hash string, payload []byte) error {
	if hash == "" || len(hash) > embMaxKey {
		return fmt.Errorf("store: put: key length %d out of range (0, %d]", len(hash), embMaxKey)
	}
	if len(payload) > embMaxVal {
		return fmt.Errorf("store: put %.12s…: payload of %d bytes exceeds %d", hash, len(payload), embMaxVal)
	}
	rec := make([]byte, 8+len(hash)+len(payload)+4)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(hash)))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	copy(rec[8:], hash)
	copy(rec[8+len(hash):], payload)
	binary.LittleEndian.PutUint32(rec[8+len(hash)+len(payload):], crc32.ChecksumIEEE(rec[8:8+len(hash)+len(payload)]))

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return fmt.Errorf("store: put %.12s…: store is closed", hash)
	}
	if err := journal.Lock(b.f, true, true); err != nil {
		return fmt.Errorf("store: lock %s: %w", b.path, err)
	}
	defer journal.Unlock(b.f) //nolint:errcheck // advisory unlock
	// Catch up on other writers (and heal any torn tail) so the append
	// lands exactly at the end of the last whole record.
	if err := b.refreshLocked(true); err != nil {
		return err
	}
	if _, err := b.f.WriteAt(rec, b.off); err != nil {
		return fmt.Errorf("store: append %s: %w", b.path, err)
	}
	b.off += int64(len(rec))
	b.setLocked(hash, append([]byte(nil), payload...))
	return nil
}

func (b *embeddedBackend) Scan(fn func(hash string, payload []byte) error) error {
	b.mu.Lock()
	if b.f != nil {
		if err := journal.Lock(b.f, false, true); err != nil {
			b.mu.Unlock()
			return fmt.Errorf("store: lock %s: %w", b.path, err)
		}
		err := b.refreshLocked(false)
		journal.Unlock(b.f) //nolint:errcheck // advisory unlock
		if err != nil {
			b.mu.Unlock()
			return err
		}
	}
	b.mu.Unlock()
	return b.index.Scan(fn)
}

func (b *embeddedBackend) Corrupt() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.corrupt
}

// Close closes the backing file (dropping its locks). The in-memory index
// stays readable; further Puts — and cross-process refreshes — fail.
func (b *embeddedBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}
