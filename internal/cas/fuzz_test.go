package cas

import (
	"bytes"
	"os"
	"testing"
)

// FuzzStoreDir writes fuzzed bytes as one .blk file and one .job file (the
// form an earlier build kept a whole job's result in) and opens a store
// over the directory: the cache directory is input from outside the
// process. NewStore must not panic, it must serve an entry exactly when its
// file verifies — the payload hashes to the header, which is the key the
// store keeps — and a file it refused must be gone. A .job file is gone
// either way: served, it was renamed to .blk.
func FuzzStoreDir(f *testing.F) {
	entry := func(payload string) []byte {
		k := PayloadKey([]byte(payload))
		return append(k[:], payload...)
	}
	good := entry("a block payload")
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(good, entry(`{"value":3}`))
	f.Add(flipped, good[:len(good)-4])
	f.Add(good[:31], []byte{})
	f.Add(entry(""), []byte("a headerless payload of an earlier build"))
	dir := f.TempDir() // inputs run one at a time in a fuzz process
	f.Fuzz(func(t *testing.T, blk, job []byte) {
		bk, jk := JobKey("block"), JobKey("job")
		s := &Store{opts: Options{Dir: dir}}
		_ = os.Remove(s.entryPath(jk)) // an earlier input's .job, served
		for path, data := range map[string][]byte{s.entryPath(bk): blk, jobPath(dir, jk): job} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewStore(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			key  Key
			file []byte
		}{{bk, blk}, {jk, job}} {
			payload, content, ok := s.GetBlock(c.key, LayerMaster)
			verifies := len(c.file) >= len(Key{})
			if verifies {
				k := PayloadKey(c.file[len(Key{}):])
				verifies = bytes.Equal(k[:], c.file[:len(Key{})])
			}
			if ok != verifies || ok && (content != PayloadKey(payload) || !bytes.Equal(c.file, append(content[:], payload...))) {
				t.Fatalf("served %v %q under key %v from file %q", ok, payload, content, c.file)
			}
			checkRefusedGone(t, s.entryPath(c.key), ok)
		}
		checkRefusedGone(t, jobPath(dir, jk), false)
	})
}

// checkRefusedGone fails unless path exists exactly when its entry was
// served.
func checkRefusedGone(t *testing.T, path string, served bool) {
	t.Helper()
	if _, err := os.Stat(path); (err == nil) != served {
		t.Fatalf("%s: served %v, on disk: %v", path, served, err)
	}
}
