package cascade

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeQueries feeds arbitrary bytes to the reference side's
// query-batch decoder: no input may panic it, and every input it
// accepts must re-encode to exactly the same bytes.
func FuzzDecodeQueries(f *testing.F) {
	one := appendQuery(appendQueryCount(nil, 1), queryEntry{Key: 0xDEADBEEF, Lo: 3, Hi: 17})
	f.Add([]byte{})                                                     // empty
	f.Add(appendQueryCount(nil, 0))                                     // count 0
	f.Add(one)                                                          // one entry
	f.Add(one[:len(one)-1])                                             // length mismatch
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 2), one[4:]...)) // count > entries
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF), one[4:]...))
	// 12*0x15555556 wraps a 32-bit int to 8, the length of a short body.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 0x15555556), make([]byte, 8)...))
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := decodeQueries(body)
		if err != nil {
			return
		}
		out := appendQueryCount(nil, q.len())
		for i := range q.len() {
			out = appendQuery(out, q.at(i))
		}
		if !bytes.Equal(out, body) {
			t.Fatalf("decoded %d entries re-encode to %x, not %x", q.len(), out, body)
		}
	})
}
