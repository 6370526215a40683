package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	s := &Snapshot{Rank: 2, World: 3, Step: 40, Payload: []byte("element state bytes")}
	b, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Rank != s.Rank || got.World != s.World || got.Step != s.Step || !bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, s)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	s := &Snapshot{Rank: 0, World: 2, Step: 7, Payload: make([]byte, 1024)}
	for i := range s.Payload {
		s.Payload[i] = byte(i)
	}
	good, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Every single-byte flip must be caught by magic, header validation
	// or the CRC.
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
	if _, err := Decode(good[:headerLen-1]); err == nil {
		t.Fatal("truncated header decoded cleanly")
	}
	if _, err := Decode(good[:len(good)-1]); err == nil {
		t.Fatal("truncated trailer decoded cleanly")
	}
}

func TestSnapshotFilesAndCommit(t *testing.T) {
	dir := t.TempDir()
	world := 2
	for step := 10; step <= 40; step += 10 {
		for r := 0; r < world; r++ {
			s := &Snapshot{Rank: r, World: world, Step: step, Payload: []byte{byte(r), byte(step)}}
			if err := WriteSnapshot(dir, s, 2); err != nil {
				t.Fatalf("write rank %d step %d: %v", r, step, err)
			}
		}
		if err := WriteCommit(dir, world, step); err != nil {
			t.Fatalf("commit step %d: %v", step, err)
		}
	}
	step, ok, err := ReadCommit(dir, world)
	if err != nil || !ok || step != 40 {
		t.Fatalf("ReadCommit = %d,%v,%v; want 40,true,nil", step, ok, err)
	}
	s, err := ReadSnapshot(dir, 1, 40)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if !bytes.Equal(s.Payload, []byte{1, 40}) {
		t.Fatalf("snapshot payload %v", s.Payload)
	}
	// keep=2 pruned the older generations.
	files, _ := filepath.Glob(filepath.Join(dir, "rank0001-step*.ck"))
	if len(files) != 2 {
		t.Fatalf("kept %d snapshots for rank 1, want 2: %v", len(files), files)
	}
	if HasSnapshot(dir, 1, 10) {
		t.Fatal("step 10 snapshot should have been pruned")
	}
	// A mismatched world is a hard error, not a silent fresh start.
	if _, _, err := ReadCommit(dir, world+1); err == nil {
		t.Fatal("world-mismatched commit read cleanly")
	}
}

func TestReadCommitMissing(t *testing.T) {
	dir := t.TempDir()
	step, ok, err := ReadCommit(dir, 3)
	if err != nil || ok || step != 0 {
		t.Fatalf("ReadCommit on empty dir = %d,%v,%v", step, ok, err)
	}
	// A corrupt commit record must surface, not restart from zero.
	if err := os.WriteFile(filepath.Join(dir, "commit.ck"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCommit(dir, 3); err == nil {
		t.Fatal("corrupt commit read cleanly")
	}
}
