package order

import (
	"fmt"

	"cts/internal/transport"
	"cts/internal/wire"
)

// Wire format of the leader-sequencer: one tag byte followed by fixed-width
// big-endian fields. The transport is unreliable, so every decoder
// bounds-checks and returns an error on truncated or corrupt datagrams.
const (
	seqTagPropose  = 1
	seqTagOrdered  = 2
	seqTagHeart    = 3
	seqTagAck      = 4
	seqTagNack     = 5
	seqTagElect    = 6
	seqTagElectAck = 7
	seqTagInstall  = 8
)

// seqPropose is a proposal unicast to the current leader. Local is a
// per-sender sequence number, dense within the view, that gives
// gap-freedom: the leader orders one sender's proposals in Local order,
// buffering any that arrive early.
type seqPropose struct {
	View    ViewID // proposer's view; the leader rejects mismatches
	Sender  transport.NodeID
	Local   uint64
	Safe    bool
	DupKey  uint64
	Payload []byte
}

// seqEntry is one ordered message, broadcast by the leader and merged
// through elections. Seq is globally monotone across views.
type seqEntry struct {
	View    ViewID
	Seq     uint64
	Sender  transport.NodeID
	Local   uint64
	Safe    bool
	DupKey  uint64
	Payload []byte
}

// seqHeartbeat is the leader's periodic beacon. It drives follower liveness
// detection, carries the safe point (every member holds seq ≤ SafePoint),
// and — because it is broadcast — doubles as the discovery beacon that lets
// stragglers and healed partitions find the component.
type seqHeartbeat struct {
	View      ViewID
	HighSeq   uint64
	SafePoint uint64
}

// seqAck is a follower's reply to a heartbeat: its all-received-up-to.
type seqAck struct {
	View ViewID
	From transport.NodeID
	Aru  uint64
}

// seqNack requests retransmission of missing sequence numbers.
type seqNack struct {
	View    ViewID
	From    transport.NodeID
	Missing []uint64
}

// seqElect announces an election: Cand proposes to form epoch Epoch.
// Between concurrent elections the higher epoch wins; on equal epochs the
// lower candidate id wins, so races converge.
type seqElect struct {
	Epoch uint64
	Cand  transport.NodeID
}

// seqElectAck is one member's contribution to an election: its latest view,
// its delivered prefix, and every retained entry, enough for the candidate
// to compute the merged message history.
type seqElectAck struct {
	Epoch     uint64
	From      transport.NodeID
	View      ViewID
	Delivered uint64
	Entries   []seqEntry
}

// seqInstall commits the election: the new view, its members, the merged
// entry suffix and the sequence high-water mark the next view continues
// from.
type seqInstall struct {
	Epoch   uint64
	View    ViewID
	Members []transport.NodeID
	HighSeq uint64
	Entries []seqEntry
}

func writeView(w *wire.Writer, v ViewID) {
	w.U64(v.Epoch)
	w.U32(uint32(v.Rep))
}

func readView(r *wire.Reader) ViewID {
	return ViewID{Epoch: r.U64(), Rep: transport.NodeID(r.U32())}
}

// seqEntryMin is the encoded size of a seqEntry with an empty payload.
const seqEntryMin = 12 + 8 + 4 + 8 + 1 + 8 + 4

func writeEntry(w *wire.Writer, m *seqEntry) {
	writeView(w, m.View)
	w.U64(m.Seq)
	w.U32(uint32(m.Sender))
	w.U64(m.Local)
	w.Bool(m.Safe)
	w.U64(m.DupKey)
	w.Bytes(m.Payload)
}

func readEntry(r *wire.Reader) seqEntry {
	return seqEntry{
		View:    readView(r),
		Seq:     r.U64(),
		Sender:  transport.NodeID(r.U32()),
		Local:   r.U64(),
		Safe:    r.Bool(),
		DupKey:  r.U64(),
		Payload: r.Bytes(),
	}
}

func writeEntries(w *wire.Writer, es []seqEntry) {
	w.U32(uint32(len(es)))
	for i := range es {
		writeEntry(w, &es[i])
	}
}

func readEntries(r *wire.Reader) []seqEntry {
	n := r.Count(seqEntryMin)
	if n == 0 {
		return nil
	}
	es := make([]seqEntry, n)
	for i := range es {
		es[i] = readEntry(r)
	}
	return es
}

// decoded returns m, or nil and r's error if the datagram was malformed or
// had bytes left over.
func decoded[T any](m *T, r *wire.Reader) (*T, error) {
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("order: sequencer datagram: %w", err)
	}
	return m, nil
}

func encodePropose(m *seqPropose) []byte {
	w := wire.NewWriter(32 + len(m.Payload))
	w.U8(seqTagPropose)
	writeView(&w, m.View)
	w.U32(uint32(m.Sender))
	w.U64(m.Local)
	w.Bool(m.Safe)
	w.U64(m.DupKey)
	w.Bytes(m.Payload)
	return w.Encoded()
}

func decodePropose(b []byte) (*seqPropose, error) {
	r := wire.NewReader(b)
	return decoded(&seqPropose{
		View:    readView(&r),
		Sender:  transport.NodeID(r.U32()),
		Local:   r.U64(),
		Safe:    r.Bool(),
		DupKey:  r.U64(),
		Payload: r.Bytes(),
	}, &r)
}

func encodeOrdered(m *seqEntry) []byte {
	w := wire.NewWriter(48 + len(m.Payload))
	w.U8(seqTagOrdered)
	writeEntry(&w, m)
	return w.Encoded()
}

func decodeOrdered(b []byte) (*seqEntry, error) {
	r := wire.NewReader(b)
	m := readEntry(&r)
	return decoded(&m, &r)
}

func encodeHeartbeat(m *seqHeartbeat) []byte {
	w := wire.NewWriter(32)
	w.U8(seqTagHeart)
	writeView(&w, m.View)
	w.U64(m.HighSeq)
	w.U64(m.SafePoint)
	return w.Encoded()
}

func decodeHeartbeat(b []byte) (*seqHeartbeat, error) {
	r := wire.NewReader(b)
	return decoded(&seqHeartbeat{View: readView(&r), HighSeq: r.U64(), SafePoint: r.U64()}, &r)
}

func encodeAck(m *seqAck) []byte {
	w := wire.NewWriter(32)
	w.U8(seqTagAck)
	writeView(&w, m.View)
	w.U32(uint32(m.From))
	w.U64(m.Aru)
	return w.Encoded()
}

func decodeAck(b []byte) (*seqAck, error) {
	r := wire.NewReader(b)
	return decoded(&seqAck{View: readView(&r), From: transport.NodeID(r.U32()), Aru: r.U64()}, &r)
}

func encodeNack(m *seqNack) []byte {
	w := wire.NewWriter(32 + 8*len(m.Missing))
	w.U8(seqTagNack)
	writeView(&w, m.View)
	w.U32(uint32(m.From))
	w.U64s(m.Missing)
	return w.Encoded()
}

func decodeNack(b []byte) (*seqNack, error) {
	r := wire.NewReader(b)
	return decoded(&seqNack{View: readView(&r), From: transport.NodeID(r.U32()), Missing: r.U64s()}, &r)
}

func encodeElect(m *seqElect) []byte {
	w := wire.NewWriter(16)
	w.U8(seqTagElect)
	w.U64(m.Epoch)
	w.U32(uint32(m.Cand))
	return w.Encoded()
}

func decodeElect(b []byte) (*seqElect, error) {
	r := wire.NewReader(b)
	return decoded(&seqElect{Epoch: r.U64(), Cand: transport.NodeID(r.U32())}, &r)
}

func encodeElectAck(m *seqElectAck) []byte {
	w := wire.NewWriter(64)
	w.U8(seqTagElectAck)
	w.U64(m.Epoch)
	w.U32(uint32(m.From))
	writeView(&w, m.View)
	w.U64(m.Delivered)
	writeEntries(&w, m.Entries)
	return w.Encoded()
}

func decodeElectAck(b []byte) (*seqElectAck, error) {
	r := wire.NewReader(b)
	return decoded(&seqElectAck{
		Epoch:     r.U64(),
		From:      transport.NodeID(r.U32()),
		View:      readView(&r),
		Delivered: r.U64(),
		Entries:   readEntries(&r),
	}, &r)
}

func encodeInstall(m *seqInstall) []byte {
	w := wire.NewWriter(64)
	w.U8(seqTagInstall)
	w.U64(m.Epoch)
	writeView(&w, m.View)
	wire.WriteU32s(&w, m.Members)
	w.U64(m.HighSeq)
	writeEntries(&w, m.Entries)
	return w.Encoded()
}

func decodeInstall(b []byte) (*seqInstall, error) {
	r := wire.NewReader(b)
	return decoded(&seqInstall{
		Epoch:   r.U64(),
		View:    readView(&r),
		Members: wire.ReadU32s[transport.NodeID](&r),
		HighSeq: r.U64(),
		Entries: readEntries(&r),
	}, &r)
}
