package cas

import (
	"bytes"
	"os"
	"testing"
)

// FuzzStoreDir writes fuzzed bytes as one .blk and one .job file and opens
// a store over the directory: the cache directory is input from outside the
// process. NewStore must not panic, any entry it serves must be the file's
// payload and hash to the key it keeps (the file's header), and a file it
// refused must be gone.
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
		for path, data := range map[string][]byte{s.blockPath(bk): blk, s.jobPath(jk): job} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := NewStore(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		payload, content, ok := s.GetBlock(bk, LayerMaster)
		if ok && (content != PayloadKey(payload) || !bytes.Equal(blk, append(content[:], payload...))) {
			t.Fatalf("served block %q under key %v from file %q", payload, content, blk)
		}
		checkRefusedGone(t, s.blockPath(bk), ok)
		payload, ok = s.GetJob(jk, LayerServer)
		if content = PayloadKey(payload); ok && !bytes.Equal(job, append(content[:], payload...)) {
			t.Fatalf("served job %q from file %q", payload, job)
		}
		checkRefusedGone(t, s.jobPath(jk), ok)
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
