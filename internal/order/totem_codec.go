package order

import (
	"fmt"

	"cts/internal/transport"
	"cts/internal/wire"
)

// Totem packet type tags on the wire.
const (
	pktData     = 1
	pktToken    = 2
	pktJoin     = 3
	pktCommit   = 4
	pktAnnounce = 5
)

func encodeData(m *dataMsg) []byte {
	w := wire.NewWriter(64 + len(m.Payload))
	w.U8(pktData)
	writeView(&w, m.Ring)
	w.U64(m.Seq)
	w.U32(uint32(m.Sender))
	w.U8(uint8(m.Kind))
	var flags uint8
	if m.Safe {
		flags |= 1
	}
	w.U8(flags)
	w.U64(m.DupKey)
	writeView(&w, m.OldRing)
	w.U64(m.OldSeq)
	w.U32(uint32(m.OldSndr))
	w.Bytes(m.Payload)
	return w.Encoded()
}

func decodeData(b []byte) (*dataMsg, error) {
	r := wire.NewReader(b)
	m := &dataMsg{
		Ring:   readView(&r),
		Seq:    r.U64(),
		Sender: transport.NodeID(r.U32()),
		Kind:   msgKind(r.U8()),
	}
	m.Safe = r.U8()&1 != 0
	m.DupKey = r.U64()
	m.OldRing = readView(&r)
	m.OldSeq = r.U64()
	m.OldSndr = transport.NodeID(r.U32())
	m.Payload = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("data message: %w", err)
	}
	return m, nil
}

func encodeToken(t *ringToken) ([]byte, error) {
	if len(t.Rtr) > wire.MaxList {
		return nil, fmt.Errorf("%w: %d rtr entries", wire.ErrOversize, len(t.Rtr))
	}
	w := wire.NewWriter(64 + 8*len(t.Rtr))
	w.U8(pktToken)
	writeView(&w, t.Ring)
	w.U64(t.TokenSeq)
	w.U64(t.Seq)
	w.U64(t.Aru)
	w.U32(uint32(t.AruID))
	w.U64s(t.Rtr)
	w.U32(t.Fcc)
	return w.Encoded(), nil
}

func decodeToken(b []byte) (*ringToken, error) {
	r := wire.NewReader(b)
	t := &ringToken{
		Ring:     readView(&r),
		TokenSeq: r.U64(),
		Seq:      r.U64(),
		Aru:      r.U64(),
		AruID:    transport.NodeID(r.U32()),
	}
	t.Rtr = r.U64s()
	t.Fcc = r.U32()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("token: %w", err)
	}
	return t, nil
}

func encodeJoin(j *joinMsg) []byte {
	w := wire.NewWriter(32 + 4*(len(j.ProcSet)+len(j.FailSet)))
	w.U8(pktJoin)
	w.U32(uint32(j.Sender))
	wire.WriteU32s(&w, j.ProcSet)
	wire.WriteU32s(&w, j.FailSet)
	w.U64(j.MaxRingSeq)
	return w.Encoded()
}

func decodeJoin(b []byte) (*joinMsg, error) {
	r := wire.NewReader(b)
	j := &joinMsg{Sender: transport.NodeID(r.U32())}
	j.ProcSet = wire.ReadU32s[transport.NodeID](&r)
	j.FailSet = wire.ReadU32s[transport.NodeID](&r)
	j.MaxRingSeq = r.U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("join message: %w", err)
	}
	return j, nil
}

// memberInfoMin is the encoded size of a memberInfo with nothing Received.
const memberInfoMin = 4 + 12 + 8 + 8 + 4

func encodeCommit(ct *commitToken) []byte {
	w := wire.NewWriter(64)
	w.U8(pktCommit)
	writeView(&w, ct.Ring)
	wire.WriteU32s(&w, ct.Members)
	w.U32(uint32(len(ct.Infos)))
	for i := range ct.Infos {
		in := &ct.Infos[i]
		w.U32(uint32(in.ID))
		writeView(&w, in.OldRing)
		w.U64(in.Aru)
		w.U64(in.HighSeq)
		w.U64s(in.Received)
	}
	return w.Encoded()
}

func decodeCommit(b []byte) (*commitToken, error) {
	r := wire.NewReader(b)
	ct := &commitToken{Ring: readView(&r)}
	ct.Members = wire.ReadU32s[transport.NodeID](&r)
	n := r.Count(memberInfoMin)
	for i := 0; i < n; i++ {
		in := memberInfo{ID: transport.NodeID(r.U32()), OldRing: readView(&r), Aru: r.U64(), HighSeq: r.U64()}
		in.Received = r.U64s()
		ct.Infos = append(ct.Infos, in)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("commit token: %w", err)
	}
	return ct, nil
}

func encodeAnnounce(a *announceMsg) []byte {
	w := wire.NewWriter(24 + 4*len(a.Members))
	w.U8(pktAnnounce)
	writeView(&w, a.Ring)
	wire.WriteU32s(&w, a.Members)
	return w.Encoded()
}

func decodeAnnounce(b []byte) (*announceMsg, error) {
	r := wire.NewReader(b)
	a := &announceMsg{Ring: readView(&r)}
	a.Members = wire.ReadU32s[transport.NodeID](&r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("announce: %w", err)
	}
	return a, nil
}
