// Package ckpt is the checkpoint persistence layer: a CRC-verified,
// versioned on-disk codec for per-rank checkpoint snapshots plus the
// commit record that makes a set of them a globally consistent cut.
//
// The write protocol mirrors two-phase commit over the filesystem:
// every rank writes its own snapshot file (temp file + atomic rename)
// for step S, the checkpoint barrier proves all of them are durable,
// and only then does rank 0 write the commit record naming S. A
// restarting world reads the commit record first, so it can never adopt
// a step some rank's snapshot is missing for.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Wire format: an 8-byte magic/version prefix, the fixed header fields
// (rank, world, step, payload length), the payload, and a trailing
// CRC32 (IEEE) over everything before it — the same frame-codec
// discipline netrt uses, with the checksum the filesystem needs and the
// socket did not.
const (
	magic0  = 'C'
	magic1  = 'K'
	magic2  = 'P'
	magic3  = 'T'
	Version = 1

	headerLen  = 8 + 3*8 + 8 // magic/version + rank/world/step + payload length
	trailerLen = 4

	// MaxPayload caps a snapshot payload so a corrupt length field
	// cannot make a reader allocate unboundedly.
	MaxPayload = 1 << 30
)

// Snapshot is one rank's checkpoint: the pup'd element state and
// registered-buffer contents at a consistent cut.
type Snapshot struct {
	Rank    int
	World   int
	Step    int
	Payload []byte
}

// Encode serializes a snapshot.
func Encode(s *Snapshot) ([]byte, error) {
	if len(s.Payload) > MaxPayload {
		return nil, fmt.Errorf("ckpt: payload of %d bytes exceeds the %d-byte cap", len(s.Payload), MaxPayload)
	}
	b := make([]byte, 0, headerLen+len(s.Payload)+trailerLen)
	b = append(b, magic0, magic1, magic2, magic3, Version, 0, 0, 0)
	for _, v := range [...]int64{int64(s.Rank), int64(s.World), int64(s.Step)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Payload)))
	b = append(b, s.Payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// Decode parses and verifies an encoded snapshot. It never panics on
// corrupt input; the returned snapshot owns a fresh copy of the
// payload.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < headerLen+trailerLen {
		return nil, fmt.Errorf("ckpt: truncated checkpoint (%d bytes)", len(b))
	}
	if b[0] != magic0 || b[1] != magic1 || b[2] != magic2 || b[3] != magic3 {
		return nil, fmt.Errorf("ckpt: bad magic %#x %#x %#x %#x", b[0], b[1], b[2], b[3])
	}
	if b[4] != Version {
		return nil, fmt.Errorf("ckpt: version %d, this build speaks %d", b[4], Version)
	}
	if b[5] != 0 || b[6] != 0 || b[7] != 0 {
		return nil, fmt.Errorf("ckpt: nonzero reserved bytes")
	}
	rank := int64(binary.LittleEndian.Uint64(b[8:]))
	world := int64(binary.LittleEndian.Uint64(b[16:]))
	step := int64(binary.LittleEndian.Uint64(b[24:]))
	plen := binary.LittleEndian.Uint64(b[32:])
	if plen > MaxPayload {
		return nil, fmt.Errorf("ckpt: payload length %d exceeds the %d-byte cap", plen, MaxPayload)
	}
	if len(b) != headerLen+int(plen)+trailerLen {
		return nil, fmt.Errorf("ckpt: length %d does not match header (payload %d)", len(b), plen)
	}
	body := b[:len(b)-trailerLen]
	want := binary.LittleEndian.Uint32(b[len(b)-trailerLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("ckpt: CRC mismatch: stored %#x, computed %#x", want, got)
	}
	if rank < 0 || world < 1 || rank >= world || step < 0 {
		return nil, fmt.Errorf("ckpt: invalid placement rank=%d world=%d step=%d", rank, world, step)
	}
	return &Snapshot{
		Rank:    int(rank),
		World:   int(world),
		Step:    int(step),
		Payload: append([]byte(nil), b[headerLen:headerLen+int(plen)]...),
	}, nil
}

// rankFile names one rank's snapshot for one step.
func rankFile(dir string, rank, step int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d-step%09d.ck", rank, step))
}

// commitFile is the commit record naming the newest globally complete
// step.
func commitFile(dir string) string { return filepath.Join(dir, "commit.ck") }

// writeAtomic writes b to path via a temp file and rename, so a crash
// mid-write leaves either the old file or the new one — never a torn
// mix.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// WriteSnapshot persists one rank's snapshot and prunes that rank's
// older snapshots, keeping the newest keep files (the current one plus
// the previous committed generation — a crash between a new snapshot
// and its commit must leave the old one restorable).
func WriteSnapshot(dir string, s *Snapshot, keep int) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeAtomic(rankFile(dir, s.Rank, s.Step), b); err != nil {
		return err
	}
	if keep > 0 {
		pruneRank(dir, s.Rank, keep)
	}
	return nil
}

// pruneRank removes all but the newest keep snapshots of one rank.
// Best-effort: pruning failures never fail a checkpoint.
func pruneRank(dir string, rank, keep int) {
	pat := filepath.Join(dir, fmt.Sprintf("rank%04d-step*.ck", rank))
	files, err := filepath.Glob(pat)
	if err != nil || len(files) <= keep {
		return
	}
	sort.Strings(files) // zero-padded step numbers sort chronologically
	for _, f := range files[:len(files)-keep] {
		os.Remove(f)
	}
}

// ReadSnapshot loads and verifies one rank's snapshot for a step.
func ReadSnapshot(dir string, rank, step int) (*Snapshot, error) {
	b, err := os.ReadFile(rankFile(dir, rank, step))
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if s.Rank != rank || s.Step != step {
		return nil, fmt.Errorf("ckpt: snapshot names rank %d step %d, expected rank %d step %d", s.Rank, s.Step, rank, step)
	}
	return s, nil
}

// HasSnapshot reports whether a rank's snapshot file exists for a step.
func HasSnapshot(dir string, rank, step int) bool {
	_, err := os.Stat(rankFile(dir, rank, step))
	return err == nil
}

// WriteCommit records step as the newest globally complete checkpoint.
// Only the coordinator writes it, and only after the checkpoint barrier
// proved every rank's snapshot durable.
func WriteCommit(dir string, world, step int) error {
	b, err := Encode(&Snapshot{Rank: 0, World: world, Step: step})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeAtomic(commitFile(dir), b)
}

// ReadCommit returns the committed step, or ok=false when no commit
// record exists (a fresh run). A present-but-corrupt record is an
// error, not a silent restart from zero.
func ReadCommit(dir string, world int) (step int, ok bool, err error) {
	b, err := os.ReadFile(commitFile(dir))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	s, err := Decode(b)
	if err != nil {
		return 0, false, err
	}
	if s.World != world {
		return 0, false, fmt.Errorf("ckpt: commit record is for a %d-rank world, this world has %d", s.World, world)
	}
	return s.Step, true, nil
}
