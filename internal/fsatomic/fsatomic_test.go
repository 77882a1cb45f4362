package fsatomic

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// temporaries lists what WriteFile may have left in dir: anything whose
// name starts with a dot.
func temporaries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.Name()[0] == '.' {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestFailedWriteKeepsOldContent: a write that fails — at its first
// byte or after many — leaves the destination as it was and no temporary
// behind; so does a destination whose directory is gone.
func TestFailedWriteKeepsOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s-a.json")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "old"); return err }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, write := range []func(io.Writer) error{
		func(io.Writer) error { return boom },
		func(w io.Writer) error {
			if _, err := w.Write(make([]byte, 1<<20)); err != nil {
				return err
			}
			return boom
		},
	} {
		if err := WriteFile(path, write); !errors.Is(err, boom) {
			t.Fatalf("WriteFile = %v, want the write's error", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Errorf("after a failed write the file holds %q, %v; want the old content", got, err)
		}
		if left := temporaries(t, dir); len(left) != 0 {
			t.Errorf("a failed write left %v behind", left)
		}
	}
	if err := WriteFile(filepath.Join(dir, "gone", "s-a.json"), func(io.Writer) error { return nil }); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
	info, err := os.Stat(path)
	if err != nil || info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, %v; want 0644", info.Mode().Perm(), err)
	}
}

// TestTemporaryNameMatchesTheSweep: while a write is in progress its
// temporary sits beside the destination under the dot-prefixed name the
// session store's NewStore sweeps (".s-*.json.tmp-*") and directory
// scanners skip.
func TestTemporaryNameMatchesTheSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s-a%2Fb.json")
	err := WriteFile(path, func(io.Writer) error {
		left := temporaries(t, dir)
		if len(left) != 1 {
			t.Fatalf("temporaries during a write: %v, want one", left)
		}
		for _, pattern := range []string{".s-*.json.tmp-*", "." + filepath.Base(path) + ".tmp-*"} {
			if ok, err := filepath.Match(pattern, left[0]); err != nil || !ok {
				t.Errorf("temporary %q does not match %q (%v)", left[0], pattern, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if left := temporaries(t, dir); len(left) != 0 {
		t.Errorf("a finished write left %v behind", left)
	}
}

// TestConcurrentWritersOfOneDirectory: writers of different files of
// one directory, and rival writers of one file, never see each other's
// temporaries: every file ends up whole, as one of its writers wrote it.
func TestConcurrentWritersOfOneDirectory(t *testing.T) {
	dir := t.TempDir()
	const files, rivals, rounds = 4, 2, 20
	var wg sync.WaitGroup
	for f := 0; f < files; f++ {
		for r := 0; r < rivals; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				path := filepath.Join(dir, fmt.Sprintf("s-%d.json", f))
				for i := 0; i < rounds; i++ {
					line := fmt.Sprintf("file %d writer %d round %d\n", f, r, i)
					err := WriteFile(path, func(w io.Writer) error {
						for k := 0; k < 100; k++ {
							if _, err := io.WriteString(w, line); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for f := 0; f < files; f++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("s-%d.json", f)))
		if err != nil {
			t.Fatal(err)
		}
		var file, writer, round int
		if _, err := fmt.Sscanf(string(got), "file %d writer %d round %d\n", &file, &writer, &round); err != nil || file != f {
			t.Fatalf("file %d starts %q", f, got[:min(len(got), 40)])
		}
		want := fmt.Sprintf("file %d writer %d round %d\n", file, writer, round)
		if string(got) != strings.Repeat(want, 100) {
			t.Errorf("file %d is not a hundred lines of %q: two writes were mixed", f, want)
		}
	}
	if left := temporaries(t, dir); len(left) != 0 {
		t.Errorf("finished writes left %v behind", left)
	}
}
