// Package keypool is a miniature stand-in for qkd/internal/keypool,
// just large enough for the analyzer corpora: the reservation
// lifecycle surface (Reserve/Consume/Release/Close), a consume-style
// []byte source, and a sentinel.
package keypool

import "errors"

var ErrExhausted = errors.New("keypool: exhausted")

type Reservoir struct{}

func New() *Reservoir { return &Reservoir{} }

func (r *Reservoir) Reserve(n int) (*Reservation, error) {
	return &Reservation{}, nil
}

func (r *Reservoir) Withdraw(n int) []byte { return make([]byte, n) }

type Reservation struct{ void bool }

func (rv *Reservation) Consume(n int) ([]byte, error) { return make([]byte, n), nil }
func (rv *Reservation) Remaining() int                { return 0 }
func (rv *Reservation) Release()                      {}
func (rv *Reservation) Close() error                  { return nil }
