// Package kms is a miniature stand-in for qkd/internal/kms used by
// the analyzer corpora.
package kms

import (
	"errors"
	"time"
)

var ErrOverload = errors.New("kms: overload")

type Service struct{}

type PoolView struct{}

// Consume mirrors the real blocking withdrawal: Consume-family name,
// key-plane package, timeout parameter.
func (v *PoolView) Consume(n int, timeout time.Duration) ([]byte, error) {
	_ = timeout
	return make([]byte, n), nil
}

func (s *Service) Claim(n int) []byte { return make([]byte, n) }

func Withdraw(n int) []byte { return make([]byte, n) }
