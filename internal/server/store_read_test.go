package server

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/core"
)

// heldFile writes a session file — a checkpoint whose one source
// document is pad bytes long, then tail — and returns its path and the
// checkpoint as a session that read it holds it.
func heldFile(t *testing.T, pad int, tail string) (string, *readCheckpoint) {
	t.Helper()
	checkpoint := []byte(`{"format":1,"name":"file","sources":[{"pad":"` + strings.Repeat("x", pad) + `"}]}`)
	state, err := decodeState(checkpoint, "held", nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s-file.json")
	if err := os.WriteFile(path, append(bytes.Clone(checkpoint), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, state.read
}

// stepRecords renders refine steps named after names as step records.
func stepRecords(t *testing.T, names ...string) string {
	t.Helper()
	var steps []core.Step
	for _, n := range names {
		steps = append(steps, core.Step{Kind: core.StepRefine, Name: n})
	}
	records, err := encodeSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	return string(records)
}

// TestRestoreDecodesAChangedCheckpoint: a restore takes the checkpoint
// it holds only for a file that starts with it byte for byte and goes on
// with nothing or a step record. A held checkpoint that differs from the
// file's in its first, a middle or its last byte, that is one byte longer
// than the file, or that the file follows with a byte other than the
// record separator is not the file's: the file is read and decoded
// afresh, as with nothing held.
func TestRestoreDecodesAChangedCheckpoint(t *testing.T) {
	records := stepRecords(t, "r1")
	cases := []struct {
		name string
		tail string
		held func([]byte) []byte
	}{
		{"first byte", records, func(b []byte) []byte { b[0] = ' '; return b }},
		{"middle byte", records, func(b []byte) []byte { b[len(b)/2] = 'y'; return b }},
		{"last byte", records, func(b []byte) []byte { b[len(b)-1] = ' '; return b }},
		{"file one byte shorter", "", func(b []byte) []byte { return append(b, ' ') }},
		{"next byte not a record separator", "\n" + records, func(b []byte) []byte { return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, read := heldFile(t, 100_000, tc.tail)
			held := &readCheckpoint{data: tc.held(bytes.Clone(read.data)), state: read.state}
			held.state.Name = "held"
			got, err := readState(path, held)
			if err != nil {
				t.Fatal(err)
			}
			want, err := readState(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.read == held || got.Name != "file" {
				t.Fatalf("the held checkpoint was taken for a file that does not start with it (session %q)", got.Name)
			}
			if !bytes.Equal(got.read.data, want.read.data) || got.size != want.size || len(got.steps) != len(want.steps) {
				t.Errorf("read with a mismatched checkpoint held: checkpoint %d bytes, size %d, %d steps; read alone: %d, %d, %d",
					len(got.read.data), got.size, len(got.steps), len(want.read.data), want.size, len(want.steps))
			}
		})
	}
}

// TestRestoreHeldCheckpointDropsATornRecord: the held checkpoint, two
// step records and a torn third restore as the held state and the two
// steps, the torn record dropped and counted.
func TestRestoreHeldCheckpointDropsATornRecord(t *testing.T) {
	whole := stepRecords(t, "r1", "r2")
	torn := stepRecords(t, "r3")
	torn = torn[:len(torn)-5]
	path, held := heldFile(t, 1000, whole+torn)
	state, err := readState(path, held)
	if err != nil {
		t.Fatal(err)
	}
	if state.read != held {
		t.Error("the held checkpoint was decoded again")
	}
	if len(state.steps) != 2 || state.steps[0].Name != "r1" || state.steps[1].Name != "r2" {
		t.Errorf("steps %+v, want r1 and r2", state.steps)
	}
	if state.torn != len(torn) || state.checkpoint != int64(len(held.data)) || state.size != int64(len(held.data)+len(whole)) {
		t.Errorf("torn %d, checkpoint %d, size %d; want %d, %d, %d", state.torn, state.checkpoint, state.size, len(torn), len(held.data), len(held.data)+len(whole))
	}
}

// TestRestoreUnchangedCheckpointReadsOnlyTheRecords: a restore of a file
// whose checkpoint it holds allocates, per restore, less than half the
// file's size: the checkpoint is compared through a pooled buffer, and
// only the step records after it are read.
func TestRestoreUnchangedCheckpointReadsOnlyTheRecords(t *testing.T) {
	path, held := heldFile(t, 400_000, stepRecords(t, "r1", "r2"))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		state, err := readState(path, held)
		if err != nil {
			t.Fatal(err)
		}
		if state.read != held || len(state.steps) != 2 {
			t.Fatalf("restored %d steps, held checkpoint taken: %v", len(state.steps), state.read == held)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("an unchanged restore of a %d-byte file allocates %d bytes", info.Size(), per)
	if per >= uint64(info.Size())/2 {
		t.Errorf("an unchanged restore of a %d-byte file allocates %d bytes, not less than half of it", info.Size(), per)
	}
}
