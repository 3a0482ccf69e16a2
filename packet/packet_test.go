package packet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcA = netip.MustParseAddr("10.0.0.1")
	dstA = netip.MustParseAddr("192.168.1.9")
	src6 = netip.MustParseAddr("2001:db8::1")
	dst6 = netip.MustParseAddr("2001:db8::9")
)

func TestIPv4RoundTrip(t *testing.T) {
	in := IPv4{
		IHL: 20, TOS: 0x2e, TotalLen: 60, ID: 0xbeef, Flags: 2, FragOff: 0,
		TTL: 64, Protocol: ProtoUDP, Src: srcA, Dst: dstA,
	}
	b := make([]byte, 60)
	if err := in.Marshal(b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateIPv4Checksum(b); err != nil {
		t.Fatalf("checksum after marshal: %v", err)
	}
	out, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.TOS != in.TOS || out.TotalLen != in.TotalLen || out.ID != in.ID ||
		out.Flags != in.Flags || out.TTL != in.TTL || out.Protocol != in.Protocol ||
		out.Src != in.Src || out.Dst != in.Dst {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestIPv4ParseErrors(t *testing.T) {
	if _, err := ParseIPv4(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	b := make([]byte, 20)
	b[0] = 0x60 // version 6
	if _, err := ParseIPv4(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: %v", err)
	}
	b[0] = 0x43 // IHL 12 bytes < 20
	if _, err := ParseIPv4(b); !errors.Is(err, ErrHeaderLength) {
		t.Fatalf("ihl: %v", err)
	}
	b[0] = 0x4f // IHL 60 > len 20
	if _, err := ParseIPv4(b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ihl overrun: %v", err)
	}
	b[0] = 0x45
	b[3] = 10 // total length 10 < IHL
	if _, err := ParseIPv4(b); !errors.Is(err, ErrHeaderLength) {
		t.Fatalf("total < ihl: %v", err)
	}
	b[2], b[3] = 0x01, 0x00 // total length 256 > buffer
	if _, err := ParseIPv4(b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("total overrun: %v", err)
	}
}

func TestIPv4MarshalErrors(t *testing.T) {
	h := IPv4{Src: srcA, Dst: dstA, TotalLen: 20}
	if err := h.Marshal(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short buffer: %v", err)
	}
	h.IHL = 22
	if err := h.Marshal(make([]byte, 60)); !errors.Is(err, ErrHeaderLength) {
		t.Fatalf("bad ihl: %v", err)
	}
	h.IHL = 20
	h.Src = src6
	if err := h.Marshal(make([]byte, 20)); !errors.Is(err, ErrVersion) {
		t.Fatalf("v6 src: %v", err)
	}
}

func TestIPv4Options(t *testing.T) {
	h := IPv4{IHL: 24, TotalLen: 24, TTL: 1, Protocol: ProtoICMP, Src: srcA, Dst: dstA}
	b := make([]byte, 24)
	if err := h.Marshal(b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateIPv4Checksum(b); err != nil {
		t.Fatal(err)
	}
	out, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.IHL != 24 {
		t.Fatalf("ihl = %d", out.IHL)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	b, err := BuildUDP4(srcA, dstA, 1000, 2000, 64, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateIPv4Checksum(b); err != nil {
		t.Fatal(err)
	}
	b[16] ^= 0xff // corrupt dst address
	if err := ValidateIPv4Checksum(b); !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

func TestDecrementTTLIncrementalChecksum(t *testing.T) {
	b, err := BuildUDP4(srcA, dstA, 1, 2, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 62; i++ {
		if err := DecrementTTL(b); err != nil {
			t.Fatalf("decrement %d: %v", i, err)
		}
		if err := ValidateIPv4Checksum(b); err != nil {
			t.Fatalf("checksum invalid after decrement %d: %v", i, err)
		}
	}
	h, _ := ParseIPv4(b)
	if h.TTL != 2 {
		t.Fatalf("ttl = %d", h.TTL)
	}
	if err := DecrementTTL(b); err != nil { // 2 -> 1
		t.Fatal(err)
	}
	if err := DecrementTTL(b); !errors.Is(err, ErrTTLExpired) { // 1 -> 0
		t.Fatalf("want ErrTTLExpired at zero, got %v", err)
	}
	if err := DecrementTTL(b); !errors.Is(err, ErrTTLExpired) { // already 0
		t.Fatalf("want ErrTTLExpired on zero, got %v", err)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	in := IPv6{
		TrafficClass: 0xb8, FlowLabel: 0xabcde, PayloadLen: 8,
		NextHeader: ProtoUDP, HopLimit: 7, Src: src6, Dst: dst6,
	}
	b := make([]byte, IPv6HeaderLen+8)
	if err := in.Marshal(b); err != nil {
		t.Fatal(err)
	}
	out, err := ParseIPv6(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestIPv6Errors(t *testing.T) {
	if _, err := ParseIPv6(make([]byte, 39)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	b := make([]byte, 40)
	b[0] = 0x45
	if _, err := ParseIPv6(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: %v", err)
	}
	b[0] = 0x60
	b[5] = 10 // payload 10 but no bytes follow
	if _, err := ParseIPv6(b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("payload overrun: %v", err)
	}
	h := IPv6{Src: srcA, Dst: dst6}
	if err := h.Marshal(make([]byte, 40)); !errors.Is(err, ErrVersion) {
		t.Fatalf("v4 src: %v", err)
	}
	if err := (IPv6{Src: src6, Dst: dst6}).Marshal(make([]byte, 39)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short marshal: %v", err)
	}
}

func TestDecrementHopLimit(t *testing.T) {
	b, err := BuildUDP6(src6, dst6, 5, 6, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecrementHopLimit(b); err != nil {
		t.Fatal(err)
	}
	if err := DecrementHopLimit(b); !errors.Is(err, ErrTTLExpired) {
		t.Fatalf("want expiry, got %v", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	in := UDP{SrcPort: 5353, DstPort: 53, Length: 8, Checksum: 0x1234}
	b := make([]byte, 8)
	if err := in.Marshal(b); err != nil {
		t.Fatal(err)
	}
	out, err := ParseUDP(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("mismatch %+v vs %+v", out, in)
	}
	if _, err := ParseUDP(b[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	b[4], b[5] = 0, 4 // length 4 < 8
	if _, err := ParseUDP(b); !errors.Is(err, ErrHeaderLength) {
		t.Fatalf("bad length: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	in := TCP{SrcPort: 80, DstPort: 51000, Seq: 1e9, Ack: 42, DataOff: 20,
		Flags: TCPSyn | TCPAck, Window: 29200}
	b := make([]byte, 20)
	if err := in.Marshal(b); err != nil {
		t.Fatal(err)
	}
	out, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("mismatch %+v vs %+v", out, in)
	}
	if _, err := ParseTCP(b[:10]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	b[12] = 3 << 4 // data offset 12 < 20
	if _, err := ParseTCP(b); !errors.Is(err, ErrHeaderLength) {
		t.Fatalf("bad offset: %v", err)
	}
}

func TestFlowExtraction(t *testing.T) {
	b, err := BuildUDP4(srcA, dstA, 1111, 2222, 64, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	k, err := Flow(b)
	if err != nil {
		t.Fatal(err)
	}
	want := FlowKey{Src: srcA, Dst: dstA, Proto: ProtoUDP, SrcPort: 1111, DstPort: 2222}
	if k != want {
		t.Fatalf("flow = %+v", k)
	}

	b6, err := BuildUDP6(src6, dst6, 7, 8, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	k6, err := Flow(b6)
	if err != nil {
		t.Fatal(err)
	}
	if k6.Src != src6 || k6.DstPort != 8 {
		t.Fatalf("flow6 = %+v", k6)
	}

	tcp, err := BuildTCP4(srcA, dstA, 443, 50000, 64, TCPSyn, nil)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := Flow(tcp)
	if err != nil {
		t.Fatal(err)
	}
	if kt.Proto != ProtoTCP || kt.SrcPort != 443 {
		t.Fatalf("tcp flow = %+v", kt)
	}

	if _, err := Flow([]byte{0x00}); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := Flow(nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("empty: %v", err)
	}
}

func TestFlowNonTransportProto(t *testing.T) {
	total := IPv4HeaderLen + 8
	b := make([]byte, total)
	h := IPv4{IHL: 20, TotalLen: total, TTL: 64, Protocol: ProtoICMP, Src: srcA, Dst: dstA}
	if err := h.Marshal(b); err != nil {
		t.Fatal(err)
	}
	k, err := Flow(b)
	if err != nil {
		t.Fatal(err)
	}
	if k.SrcPort != 0 || k.DstPort != 0 {
		t.Fatalf("icmp flow has ports: %+v", k)
	}
}

func TestVersionNibble(t *testing.T) {
	if Version(nil) != 0 {
		t.Fatal("empty version")
	}
	if Version([]byte{0x45}) != 4 || Version([]byte{0x60}) != 6 {
		t.Fatal("version nibble")
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{Src: srcA, Dst: dstA, Proto: ProtoUDP, SrcPort: 1, DstPort: 2}
	if s := k.String(); s == "" {
		t.Fatal("empty string")
	}
}

// Property: the Internet checksum of any buffer with its checksum field
// folded in verifies to zero — Marshal/Validate agree for arbitrary headers.
func TestQuickChecksumInvolution(t *testing.T) {
	check := func(tos, ttl, proto uint8, id uint16, payloadLen uint8) bool {
		total := IPv4HeaderLen + int(payloadLen)
		b := make([]byte, total)
		h := IPv4{
			IHL: 20, TOS: tos, TotalLen: total, ID: id, TTL: ttl,
			Protocol: proto, Src: srcA, Dst: dstA,
		}
		if err := h.Marshal(b); err != nil {
			return false
		}
		return ValidateIPv4Checksum(b) == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: parse(marshal(h)) is identity for all valid IPv6 headers.
func TestQuickIPv6RoundTrip(t *testing.T) {
	check := func(tc uint8, fl uint32, nh, hl uint8, plen uint8) bool {
		h := IPv6{
			TrafficClass: tc, FlowLabel: fl & 0xfffff, PayloadLen: int(plen),
			NextHeader: nh, HopLimit: hl, Src: src6, Dst: dst6,
		}
		b := make([]byte, IPv6HeaderLen+int(plen))
		if err := h.Marshal(b); err != nil {
			return false
		}
		out, err := ParseIPv6(b)
		return err == nil && out == h
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DecrementTTL preserves checksum validity for every starting TTL.
func TestQuickTTLChecksumPreserved(t *testing.T) {
	check := func(ttl uint8) bool {
		if ttl < 2 {
			return true
		}
		b, err := BuildUDP4(srcA, dstA, 9, 9, ttl, nil)
		if err != nil {
			return false
		}
		if err := DecrementTTL(b); err != nil {
			return false
		}
		return ValidateIPv4Checksum(b) == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// refChecksum is the RFC 1071 definition, one big-endian 16-bit word at a
// time: the reference the word-at-a-time kernel must match bit for bit.
func refChecksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// refValidate is ValidateIPv4Checksum's contract built on refChecksum.
func refValidate(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return ErrTruncated
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return ErrHeaderLength
	}
	if refChecksum(b[:ihl]) != 0 {
		return ErrChecksum
	}
	return nil
}

// sameSentinel reports whether got and want wrap the same sentinel (or are
// both nil).
func sameSentinel(got, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

// checkKernels asserts the checksum kernels against the byte-wise
// reference on b: Checksum itself, ValidateIPv4Checksum for every IHL on
// b as given and with its checksum field made valid, and DecrementTTL's
// incremental update against a full recompute.
func checkKernels(t *testing.T, b []byte) {
	t.Helper()
	if got, want := Checksum(b), refChecksum(b); got != want {
		t.Fatalf("Checksum(len %d) = %#04x, reference %#04x", len(b), got, want)
	}
	if len(b) == 0 {
		return
	}
	h := bytes.Clone(b)
	for ihl := 0; ihl < 16; ihl++ {
		h[0] = h[0]&0xf0 | byte(ihl)
		if got, want := ValidateIPv4Checksum(h), refValidate(h); !sameSentinel(got, want) {
			t.Fatalf("ihl %d len %d: ValidateIPv4Checksum = %v, reference %v", ihl, len(h), got, want)
		}
		if ihl*4 < IPv4HeaderLen || len(h) < ihl*4 {
			continue
		}
		hdr := h[:ihl*4]
		binary.BigEndian.PutUint16(hdr[10:12], 0)
		binary.BigEndian.PutUint16(hdr[10:12], refChecksum(hdr))
		if err := ValidateIPv4Checksum(h); err != nil {
			t.Fatalf("ihl %d: valid header rejected: %v", ihl, err)
		}
		if hdr[8] == 0 {
			continue
		}
		_ = DecrementTTL(hdr)
		got := binary.BigEndian.Uint16(hdr[10:12])
		binary.BigEndian.PutUint16(hdr[10:12], 0)
		if want := refChecksum(hdr); got != want {
			t.Fatalf("ihl %d ttl %d: DecrementTTL checksum %#04x, recompute %#04x", ihl, hdr[8], got, want)
		}
		binary.BigEndian.PutUint16(hdr[10:12], got)
	}
}

// TestChecksumMatchesReference sweeps every length up to 1,600 bytes at
// every start offset modulo 8, over random, all-0xff and all-zero bytes.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1608)
	fills := map[string]func(){
		"random": func() { rng.Read(buf) },
		"ones":   func() { copy(buf, bytes.Repeat([]byte{0xff}, len(buf))) },
		"zeros":  func() { clear(buf) },
	}
	for name, fill := range fills {
		fill()
		for off := 0; off < 8; off++ {
			for n := 0; n <= 1600; n++ {
				if got, want := Checksum(buf[off:off+n]), refChecksum(buf[off:off+n]); got != want {
					t.Fatalf("%s off %d len %d: %#04x, reference %#04x", name, off, n, got, want)
				}
			}
		}
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(80))
		rng.Read(b)
		checkKernels(t, b)
	}
}

// FuzzChecksum pins the word-at-a-time kernels to the byte-wise
// reference on arbitrary bytes at an arbitrary start offset, so unaligned
// slices and odd lengths are covered.
func FuzzChecksum(f *testing.F) {
	udp, err := BuildUDP4(srcA, dstA, 1, 2, 64, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(udp, uint(0))
	f.Add(udp, uint(3))
	f.Add(bytes.Repeat([]byte{0xff}, 61), uint(1))
	f.Add(make([]byte, 64), uint(0))
	f.Add([]byte{0x4f, 1, 2}, uint(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint) {
		off %= uint(len(data) + 1)
		checkKernels(t, data[off:])
	})
}

// TestDecrementTTLMatchesRecompute checks that the incremental update
// writes exactly the checksum Marshal computes for the decremented header,
// on random headers and on the one checksum (0xfeff) where RFC 1141's
// update writes 0xffff instead of 0x0000.
func TestDecrementTTLMatchesRecompute(t *testing.T) {
	check := func(h IPv4) {
		t.Helper()
		b := make([]byte, 60)
		if err := h.Marshal(b); err != nil {
			t.Fatal(err)
		}
		_ = DecrementTTL(b)
		h.TTL--
		want := make([]byte, 60)
		if err := h.Marshal(want); err != nil {
			t.Fatal(err)
		}
		if got, exp := binary.BigEndian.Uint16(b[10:12]), binary.BigEndian.Uint16(want[10:12]); got != exp {
			t.Fatalf("%+v: checksum %#04x after DecrementTTL, recompute %#04x", h, got, exp)
		}
	}
	rng := rand.New(rand.NewSource(2))
	addr := func() netip.Addr {
		var a [4]byte
		rng.Read(a[:])
		return netip.AddrFrom4(a)
	}
	for i := 0; i < 20000; i++ {
		check(IPv4{
			IHL: IPv4HeaderLen + 4*rng.Intn(11), TOS: uint8(rng.Intn(256)),
			TotalLen: rng.Intn(1 << 16), ID: uint16(rng.Intn(1 << 16)),
			Flags: uint8(rng.Intn(8)), FragOff: uint16(rng.Intn(1 << 13)),
			TTL: uint8(1 + rng.Intn(255)), Protocol: uint8(rng.Intn(256)),
			Src: addr(), Dst: addr(),
		})
	}
	// Pin HC = 0xfeff: search the ID space for the header that marshals
	// to it.
	h := IPv4{TotalLen: 84, TTL: 64, Protocol: ProtoUDP, Src: srcA, Dst: dstA}
	b := make([]byte, IPv4HeaderLen)
	for id := 0; id < 1<<16; id++ {
		h.ID = uint16(id)
		if err := h.Marshal(b); err != nil {
			t.Fatal(err)
		}
		if binary.BigEndian.Uint16(b[10:12]) == 0xfeff {
			check(h)
			return
		}
	}
	t.Fatal("no ID yields checksum 0xfeff")
}

var csSink uint16

func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{20, 64, 576, 1500} {
		buf := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(buf)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				csSink += Checksum(buf)
			}
		})
	}
}

var errSink error

func BenchmarkValidateIPv4Checksum(b *testing.B) {
	pkt, err := BuildUDP4(srcA, dstA, 1, 2, 64, make([]byte, 36))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errSink = ValidateIPv4Checksum(pkt)
	}
	if errSink != nil {
		b.Fatal(errSink)
	}
}
