package wire

// Inter-group federation messages. Two codecs live here:
//
//   - CCSFedPayload rides the ordinary totally-ordered CCS machinery inside
//     one group (wire.TypeCCSFed): a federated offset-adoption round whose
//     decided value nudges the whole group's clock toward its neighbors and
//     whose slack term keeps every member's published staleness bound honest
//     about the residual inter-group skew.
//
//   - GroupSummary travels BETWEEN groups as a standalone authenticated UDP
//     frame: the sending group's current (group_clock, bound, epoch) as read
//     from its lease plane. Summaries are not ordered — they are advisory
//     inputs to the receiving group's merge rule, which funnels any influence
//     through a federated CCS round so §3 determinism is preserved.

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"
)

// CCSFedPayload is the payload of a federated offset-adoption message
// (TypeCCSFed). The header's Seq carries the federation round number, under
// the reserved federation thread identifier. Proposed is the sender's local
// clock plus the bounded inter-group nudge; Slack is the inter-group
// precision term every member folds into its published staleness bound on
// adoption (it covers how far ahead any neighbor group may plausibly be).
type CCSFedPayload struct {
	Proposed time.Duration
	Slack    time.Duration
}

const ccsFedPayloadLen = 8 + 8

// MarshalCCSFed encodes p.
func MarshalCCSFed(p CCSFedPayload) []byte {
	w := NewWriter(ccsFedPayloadLen)
	w.U64(uint64(p.Proposed))
	w.U64(uint64(p.Slack))
	return w.Encoded()
}

// UnmarshalCCSFed decodes a federated CCS payload.
func UnmarshalCCSFed(b []byte) (CCSFedPayload, error) {
	if len(b) != ccsFedPayloadLen {
		return CCSFedPayload{}, fmt.Errorf("%w: fed CCS payload %d bytes, want %d",
			ErrTruncated, len(b), ccsFedPayloadLen)
	}
	r := NewReader(b)
	return CCSFedPayload{Proposed: time.Duration(r.U64()), Slack: time.Duration(r.U64())}, nil
}

// GroupSummary is one group's clock summary exchanged with parent/peer
// groups: the current group clock and honest staleness bound as read from
// the sender's lease plane, the lease epoch it was read under, and a
// per-sender sequence number for replay rejection.
type GroupSummary struct {
	Group      GroupID // sending group
	Sender     uint32  // sending member (transport identity within the group)
	Epoch      uint64  // sender's lease epoch at the reading
	Seq        uint64  // per-(group, sender) monotone sequence number
	GroupClock time.Duration
	Bound      time.Duration
}

const (
	fedMagic          = 0xCF
	fedVersion        = 1
	fedMACLen         = 16 // HMAC-SHA256 truncated
	groupSummaryLen   = 2 + 4 + 4 + 8 + 8 + 8 + 8
	groupSummaryFrame = groupSummaryLen + fedMACLen
)

// ErrBadMAC is returned for a summary frame whose authenticator does not
// verify under the configured federation key.
var ErrBadMAC = errors.New("wire: summary authentication failed")

func summaryMAC(key, frame []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(frame)
	return mac.Sum(nil)[:fedMACLen]
}

// MarshalGroupSummary encodes p as a standalone authenticated frame: magic,
// version, the fixed-width fields, and a truncated HMAC-SHA256 over all
// preceding bytes under key.
func MarshalGroupSummary(p GroupSummary, key []byte) []byte {
	w := NewWriter(groupSummaryFrame)
	w.U8(fedMagic)
	w.U8(fedVersion)
	w.U32(uint32(p.Group))
	w.U32(p.Sender)
	w.U64(p.Epoch)
	w.U64(p.Seq)
	w.U64(uint64(p.GroupClock))
	w.U64(uint64(p.Bound))
	w.Raw(summaryMAC(key, w.Encoded()))
	return w.Encoded()
}

// UnmarshalGroupSummary decodes and authenticates a summary frame produced
// by MarshalGroupSummary under the same key.
func UnmarshalGroupSummary(b, key []byte) (GroupSummary, error) {
	if len(b) != groupSummaryFrame {
		return GroupSummary{}, fmt.Errorf("%w: summary %d bytes, want %d",
			ErrShortMessage, len(b), groupSummaryFrame)
	}
	r := NewReader(b)
	if r.U8() != fedMagic {
		return GroupSummary{}, ErrBadMagic
	}
	if v := r.U8(); v != fedVersion {
		return GroupSummary{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	p := GroupSummary{Group: GroupID(r.U32()), Sender: r.U32(), Epoch: r.U64(), Seq: r.U64(),
		GroupClock: time.Duration(r.U64()), Bound: time.Duration(r.U64())}
	if !hmac.Equal(r.Raw(fedMACLen), summaryMAC(key, b[:groupSummaryLen])) {
		return GroupSummary{}, ErrBadMAC
	}
	return p, nil
}
