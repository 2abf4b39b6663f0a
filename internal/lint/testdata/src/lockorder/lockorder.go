// Corpus for the lockorder analyzer: AB/BA cycles within and across
// packages, locks held across blocking operations (directly and
// through a callee's summary), and the //lint:lockorder justification
// directive.
package lockorder

import (
	"sync"
	"time"

	"kms"
	"lockdep"
)

var mu sync.Mutex

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// ab and ba disagree on acquisition order; the cycle is only visible
// when the two functions' summaries are joined.
func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock() // want `lock-order cycle: lockorder\.pair\.a → lockorder\.pair\.b → lockorder\.pair\.a`
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// reverse acquires the lockdep pair in Journal → Ledger order, against
// lockdep.Post's Ledger → Journal: the BA half lives in this package,
// the AB half in the dependency's facts file.
func reverse() {
	lockdep.Journal.Lock()
	lockdep.Ledger.Lock() // want `lock-order cycle: lockdep\.Journal → lockdep\.Ledger → lockdep\.Journal`
	lockdep.Ledger.Unlock()
	lockdep.Journal.Unlock()
}

// relock calls a helper that takes mu while mu is already held: the
// self-deadlock only the caller can see.
func relock() {
	mu.Lock()
	helper() // want `lock lockorder\.mu acquired while already held`
	mu.Unlock()
}

func helper() {
	mu.Lock()
	mu.Unlock()
}

func sendHeld(ch chan int) {
	mu.Lock()
	ch <- 1 // want `lockorder\.mu held across channel send`
	mu.Unlock()
}

func waitHeld(wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want `lockorder\.mu held across WaitGroup\.Wait`
	mu.Unlock()
}

var pool kms.PoolView

func withdrawHeld() {
	mu.Lock()
	bits, _ := pool.Consume(16, time.Second) // want `lockorder\.mu held across blocking kms\.PoolView\.Consume`
	_ = bits
	mu.Unlock()
}

// blockIndirect blocks inside a callee; the Blocks fact in forward's
// summary surfaces at the call site.
func blockIndirect(ch chan int) {
	mu.Lock()
	forward(ch) // want `lockorder\.mu held across channel send`
	mu.Unlock()
}

func forward(ch chan int) {
	ch <- 1
}

// trySend never parks: select with a default is non-blocking.
func trySend(ch chan int) {
	mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	mu.Unlock()
}

// turnstile documents holding mu across the send on purpose; the
// directive records the reason and silences the report.
func turnstile(ch chan int) {
	//lint:lockorder mu is the documented turnstile for this exchange
	mu.Lock()
	ch <- 1
	mu.Unlock()
}

// The walk visits every expression a statement evaluates: a select
// case's comm, a type switch's assign, an inc/dec operand and a send's
// channel operand. Each case nests its own lock class, because a
// self-nesting signature is reported once per run.
var commMu, recvMu, assignMu, incMu, chanMu sync.Mutex

func commValue() int {
	commMu.Lock()
	defer commMu.Unlock()
	return 1
}

// trySendLocked never parks (the select has a default), and its comm is
// not itself a channel send; evaluating the comm takes commMu again.
func trySendLocked(ch chan int) {
	commMu.Lock()
	select {
	case ch <- commValue(): // want `lock lockorder\.commMu acquired while already held`
	default:
	}
	commMu.Unlock()
}

func recvChan(ch chan int) chan int {
	recvMu.Lock()
	defer recvMu.Unlock()
	return ch
}

// tryRecvLocked: the receive comm is not itself a blocking receive.
func tryRecvLocked(ch chan int) int {
	recvMu.Lock()
	defer recvMu.Unlock()
	select {
	case v := <-recvChan(ch): // want `lock lockorder\.recvMu acquired while already held`
		return v
	default:
		return 0
	}
}

func assignValue() any {
	assignMu.Lock()
	defer assignMu.Unlock()
	return 1
}

func typeSwitchLocked() {
	assignMu.Lock()
	switch assignValue().(type) { // want `lock lockorder\.assignMu acquired while already held`
	case int:
	}
	assignMu.Unlock()
}

func incIndex() int {
	incMu.Lock()
	defer incMu.Unlock()
	return 0
}

func incLocked(counts []int) {
	incMu.Lock()
	counts[incIndex()]++ // want `lock lockorder\.incMu acquired while already held`
	incMu.Unlock()
}

func chanOf(ch chan int) chan int {
	chanMu.Lock()
	defer chanMu.Unlock()
	return ch
}

func sendChanLocked(ch chan int) {
	chanMu.Lock()
	chanOf(ch) <- 1 // want `lockorder\.chanMu held across channel send` `lock lockorder\.chanMu acquired while already held`
	chanMu.Unlock()
}
