// Corpus for keytaint's sanctioned key fields: a MAC keeps its hash
// key only as the hash's tables, so its hash field is key material.
// Reading it into a log is a leak; using it to compute a tag is not.
package auth

import "fmt"

type PolyHash struct{ tab [16][16]uint64 }

func (h *PolyHash) Sum(msg []byte) uint64 { return h.tab[0][len(msg)&15] }

type MAC struct {
	hash *PolyHash
}

func (m *MAC) Tag(msg []byte, pad uint64) uint64 {
	fmt.Println("mac key", m.hash) // want `key material from auth\.MAC\.hash reaches fmt\.Println`
	return m.hash.Sum(msg) ^ pad
}
