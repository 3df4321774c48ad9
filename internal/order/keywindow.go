package order

// maxMessagesPerToken bounds broadcasts per token visit (Totem's flow
// control). The seq and instant orderers size their duplicate-key windows
// from it too, so all three orderers' windows agree.
const maxMessagesPerToken = 16

// minKeyGeneration is the floor of keyGeneration, for small groups.
const minKeyGeneration = 4096

// keyGeneration is the key-window generation for members members that each
// order up to maxMessagesPerToken broadcasts per visit: four visits' worth,
// floored at 4 096 for small groups.
func keyGeneration(members int) int {
	return max(4*maxMessagesPerToken*members, minKeyGeneration)
}

// keyWindow is a bounded set of recent logical identities (dupKeys), for
// the duplicate suppression of §4.3. It keeps two generations and retires
// the older one when the current reaches the generation size, so it
// remembers at least that many of the most recent keys and at most twice as
// many. Forgetting an old key only costs a redundant send, which the core's
// and replication's duplicate paths absorb. Key 0 means "no identity" and is
// never noted. The zero value is an empty window.
type keyWindow struct {
	cur, prev map[uint64]bool
}

// Seen reports whether k is in the window.
func (w *keyWindow) Seen(k uint64) bool { return k != 0 && (w.cur[k] || w.prev[k]) }

// Len is the number of keys held, at most twice the generation.
func (w *keyWindow) Len() int { return len(w.cur) + len(w.prev) }

// Note records k, retiring the older generation first if the current one
// holds generation keys.
func (w *keyWindow) Note(k uint64, generation int) {
	if k == 0 || w.cur[k] {
		return
	}
	if w.cur == nil || len(w.cur) >= generation {
		w.prev, w.cur = w.cur, make(map[uint64]bool)
	}
	w.cur[k] = true
}
