package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/harness"
)

// ResultFormatVersion identifies the on-disk result encoding. Bump it
// on any change to the file layout below; old files are then ignored
// (their names hash the old version) and recomputed.
const ResultFormatVersion = 1

// resultMagic brands result files, so a trace file (or garbage)
// dropped into the result directory can never be served as a response.
var resultMagic = [4]byte{'D', 'R', 'S', 'R'}

// castagnoli is the CRC-32C table (hardware-accelerated on
// amd64/arm64) that checksums every result file.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ResultKey content-addresses a query's response: the hex SHA-256
// (first 16 bytes) over the query's canonical encoding plus everything
// else that determines the bytes — the result format version, the
// Record schema, and the build commit. Two processes of the same build
// that receive the same query compute the same key with no
// coordination; a new build (or schema/format bump) orphans old entries
// rather than serving stale bytes.
//
// The literal "trace-v1" is the version of an on-disk trace format that
// no longer exists. It stays in the hashed prefix so that keys, and the
// result files named after them, are unchanged by its removal
// (TestCanonicalKeyIsStable pins one).
func ResultKey(q harness.Query, commit string) string {
	h := sha256.New()
	fmt.Fprintf(h, "dsm-result\x00v%d\x00trace-v1\x00%s\x00%s\x00%s",
		ResultFormatVersion, harness.RecordSchema, commit, q.Canonical())
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// ResultStore is a directory of memoized query responses, one file per
// result key, named <key>.result. The payload is framed as magic,
// version byte, body and CRC-32C trailer, written to a temp file and
// renamed into place so a
// concurrent reader sees either nothing or a complete file. Any decode
// failure is a silent miss that deletes the offender: corrupt entries
// recompute, they never surface as errors. A nil *ResultStore disables
// persistence (Load always misses, Save does nothing).
type ResultStore struct {
	dir string
}

// OpenResultStore returns a store rooted at dir, creating it if needed.
func OpenResultStore(dir string) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return &ResultStore{dir: dir}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *ResultStore) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path returns the file a key materializes at. Keys are produced by
// ResultKey and are plain hex; anything else is rejected by Load/Save
// before touching the filesystem.
func (s *ResultStore) path(key string) string {
	return filepath.Join(s.dir, key+".result")
}

// validKey accepts exactly the shape ResultKey emits: non-empty, all
// lowercase hex. It is the guard that keeps a hostile key ("../...")
// from escaping the store directory.
func validKey(key string) bool {
	if len(key) == 0 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Load returns the stored response body for key, or ok=false on any
// miss — including a corrupt, truncated or mis-branded file, which it
// deletes so the slot recomputes cleanly.
func (s *ResultStore) Load(key string) ([]byte, bool) {
	if s == nil || !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	body, err := decodeResult(data)
	if err != nil {
		os.Remove(s.path(key))
		return nil, false
	}
	return body, true
}

// Save frames the response body and atomically installs it under key.
func (s *ResultStore) Save(key string, body []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("serve: invalid result key %q", key)
	}
	data := encodeResult(body)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Len counts the complete result files currently in the store (0 for a
// nil store); a /statusz convenience, not a hot path.
func (s *ResultStore) Len() int {
	if s == nil {
		return 0
	}
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.result"))
	if err != nil {
		return 0
	}
	return len(matches)
}

// encodeResult frames a body: magic | version | body | crc32c(all).
func encodeResult(body []byte) []byte {
	buf := make([]byte, 0, len(resultMagic)+1+len(body)+4)
	buf = append(buf, resultMagic[:]...)
	buf = append(buf, ResultFormatVersion)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeResult unframes a file, rejecting truncation, bit rot, foreign
// magic and version skew.
func decodeResult(data []byte) ([]byte, error) {
	if len(data) < len(resultMagic)+1+4 {
		return nil, fmt.Errorf("serve: truncated result file")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("serve: result checksum mismatch")
	}
	if [4]byte(payload[:4]) != resultMagic {
		return nil, fmt.Errorf("serve: bad result magic")
	}
	if payload[4] != ResultFormatVersion {
		return nil, fmt.Errorf("serve: result format version mismatch")
	}
	return payload[5:], nil
}
