//go:build !simnetpoison

package simnet

// poisonDelivered is off in normal builds; see poison.go.
const poisonDelivered = false
