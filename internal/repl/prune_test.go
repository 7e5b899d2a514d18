package repl

import (
	"os"
	"path/filepath"
	"testing"

	"eyewnder/internal/store"
)

// A mirror can skip generations (a resync fetches only the newest
// snapshot and the segments above it), so pruning below a new snapshot
// must remove every older local file, not stop at the first gap.
func TestPruneBelowCrossesGaps(t *testing.T) {
	dir := t.TempDir()
	files := []store.FileInfo{
		{Kind: store.FileWAL, Gen: 1},
		{Kind: store.FileWAL, Gen: 3},
		{Kind: store.FileSnapshot, Gen: 4},
		{Kind: store.FileWAL, Gen: 4},
	}
	for _, fi := range files {
		if err := os.WriteFile(filepath.Join(dir, fi.Name()), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "unrelated.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f := &Follower{opts: Options{Dir: dir}}
	f.pruneBelow(4)
	for _, fi := range files {
		_, err := os.Stat(filepath.Join(dir, fi.Name()))
		if gone := os.IsNotExist(err); gone != (fi.Gen < 4) {
			t.Errorf("%s: removed=%v after pruneBelow(4) (stat: %v)", fi.Name(), gone, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated.txt")); err != nil {
		t.Errorf("pruneBelow touched a non-store file: %v", err)
	}
}
