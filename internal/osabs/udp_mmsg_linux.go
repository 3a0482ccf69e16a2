//go:build linux && (amd64 || arm64)

// udp_mmsg_linux.go is the batched UDP backend: whole RX/TX batches move
// through single recvmmsg/sendmmsg syscalls on a non-blocking IPv4
// socket. Each recvmmsg scatter-gathers directly into the caller's arena
// slab (one iovec per frame region), so bytes travel kernel -> slab ->
// Packet.Data with no user-space copy; SO_RXQ_OVFL ancillary data carries
// the kernel's cumulative RX drop counter, which recvInto differentiates
// into per-poll drop deltas for the stats tree.
package osabs

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

const mmsgSupported = true

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// per-message byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// rxCtrlSpace is CMSG_SPACE(4) on 64-bit Linux: a 16-byte cmsghdr plus a
// uint32 payload (the SO_RXQ_OVFL counter), padded to 8 bytes.
const rxCtrlSpace = 24

// soRxqOvfl is SOL_SOCKET/SO_RXQ_OVFL.
const soRxqOvfl = 40

type mmsgSocket struct {
	fd        int
	local     string
	connected bool

	// opMu fences in-flight syscalls against close so the fd number can
	// never be recycled under a live recvmmsg/sendmmsg.
	opMu   sync.RWMutex
	closed bool

	// Receiver-goroutine-owned scratch.
	rhdrs []mmsghdr
	riovs []syscall.Iovec
	rctrl []byte
	// Transmitter-goroutine-owned scratch.
	shdrs []mmsghdr
	siovs []syscall.Iovec

	lastOvfl  uint32
	ovflSeen  bool
	dummyByte byte // iovec base for zero-length datagrams
}

// newMmsgSocket opens the batched backend. applicable=false (with a nil
// error) means the address shape needs the portable backend instead
// (hostnames, IPv6); a true applicable with a non-nil error is fatal.
func newMmsgSocket(cfg UDPConfig) (udpSocket, error, bool) {
	laddr, ok := resolveUDP4(cfg.Listen)
	if !ok {
		return nil, nil, false
	}
	var raddr *net.UDPAddr
	if cfg.Peer != "" {
		if raddr, ok = resolveUDP4(cfg.Peer); !ok {
			return nil, nil, false
		}
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("osabs: udp socket: %w", err), true
	}
	fail := func(err error) (udpSocket, error, bool) {
		_ = syscall.Close(fd)
		return nil, err, true
	}
	if cfg.ReusePort {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReusePort, 1); err != nil {
			return fail(fmt.Errorf("osabs: SO_REUSEPORT: %w", err))
		}
	}
	// Socket-drop visibility is reflective surface, not correctness;
	// tolerate kernels without SO_RXQ_OVFL.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soRxqOvfl, 1)
	// Grow the buffers best-effort: a dataplane socket absorbing bursts
	// wants more than the 200KB default.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1<<21)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 1<<21)
	sa := &syscall.SockaddrInet4{Port: laddr.Port}
	copy(sa.Addr[:], laddr.IP.To4())
	if err := syscall.Bind(fd, sa); err != nil {
		return fail(fmt.Errorf("osabs: udp bind %s: %w", cfg.Listen, err))
	}
	bound, err := syscall.Getsockname(fd)
	if err != nil {
		return fail(fmt.Errorf("osabs: udp getsockname: %w", err))
	}
	b4 := bound.(*syscall.SockaddrInet4)
	s := &mmsgSocket{
		fd:    fd,
		local: fmt.Sprintf("%s:%d", net.IP(b4.Addr[:]).String(), b4.Port),
	}
	if raddr != nil {
		rsa := &syscall.SockaddrInet4{Port: raddr.Port}
		copy(rsa.Addr[:], raddr.IP.To4())
		if err := syscall.Connect(fd, rsa); err != nil {
			return fail(fmt.Errorf("osabs: udp connect %s: %w", cfg.Peer, err))
		}
		s.connected = true
	}
	return s, nil, true
}

// growRecv sizes the receive scratch vectors for n messages.
func (s *mmsgSocket) growRecv(n int) {
	if cap(s.rhdrs) < n {
		s.rhdrs = make([]mmsghdr, n)
		s.riovs = make([]syscall.Iovec, n)
		s.rctrl = make([]byte, n*rxCtrlSpace)
	}
	s.rhdrs = s.rhdrs[:n]
	s.riovs = s.riovs[:n]
}

func (s *mmsgSocket) recvInto(slab []byte, fs int, lens []int) (int, int, int, uint64, error) {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.closed {
		return 0, 0, 0, 0, ErrClosed
	}
	n := len(lens)
	s.growRecv(n)
	for i := 0; i < n; i++ {
		s.riovs[i].Base = &slab[i*fs]
		s.riovs[i].SetLen(fs)
		h := &s.rhdrs[i].hdr
		h.Name = nil
		h.Namelen = 0
		h.Iov = &s.riovs[i]
		h.Iovlen = 1
		h.Control = &s.rctrl[i*rxCtrlSpace]
		h.SetControllen(rxCtrlSpace)
		h.Flags = 0
		s.rhdrs[i].n = 0
	}
	r, _, errno := syscall.Syscall6(sysRecvmmsg,
		uintptr(s.fd), uintptr(unsafe.Pointer(&s.rhdrs[0])), uintptr(n),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	runtime.KeepAlive(slab)
	if errno != 0 {
		if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK || errno == syscall.EINTR {
			return 0, 0, 1, 0, nil
		}
		if errno == syscall.EBADF {
			return 0, 0, 1, 0, ErrClosed
		}
		return 0, 0, 1, 0, errno
	}
	got := int(r)
	var kdrops uint64
	for i := 0; i < got; i++ {
		lens[i] = int(s.rhdrs[i].n)
		if d, ok := s.parseOvfl(i); ok {
			// The counter is cumulative per socket; successive messages
			// carry non-decreasing values, so the last one wins and the
			// delta against the previous poll is this poll's drop count.
			if s.ovflSeen {
				kdrops = uint64(d - s.lastOvfl) // wraps correctly in uint32
			}
			s.lastOvfl, s.ovflSeen = d, true
		}
	}
	return got, 1, 0, kdrops, nil
}

// parseOvfl extracts the SO_RXQ_OVFL uint32 from message i's ancillary
// data, if the kernel attached one.
func (s *mmsgSocket) parseOvfl(i int) (uint32, bool) {
	cl := int(s.rhdrs[i].hdr.Controllen)
	if cl < syscall.SizeofCmsghdr+4 {
		return 0, false
	}
	ctrl := s.rctrl[i*rxCtrlSpace : i*rxCtrlSpace+cl]
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	if cm.Level != syscall.SOL_SOCKET || cm.Type != soRxqOvfl {
		return 0, false
	}
	return *(*uint32)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr])), true
}

func (s *mmsgSocket) sendBatch(frames [][]byte) (int, int, error) {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.closed {
		return 0, 0, ErrClosed
	}
	if !s.connected {
		return 0, 0, fmt.Errorf("osabs: udp %s: send without a peer", s.local)
	}
	n := len(frames)
	if cap(s.shdrs) < n {
		s.shdrs = make([]mmsghdr, n)
		s.siovs = make([]syscall.Iovec, n)
	}
	s.shdrs = s.shdrs[:n]
	s.siovs = s.siovs[:n]
	for i, f := range frames {
		if len(f) > 0 {
			s.siovs[i].Base = &f[0]
		} else {
			s.siovs[i].Base = &s.dummyByte
		}
		s.siovs[i].SetLen(len(f))
		h := &s.shdrs[i].hdr
		h.Name = nil
		h.Namelen = 0
		h.Iov = &s.siovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.SetControllen(0)
		h.Flags = 0
	}
	sent, syscalls := 0, 0
	for sent < n {
		r, _, errno := syscall.Syscall6(sysSendmmsg,
			uintptr(s.fd), uintptr(unsafe.Pointer(&s.shdrs[sent])), uintptr(n-sent), 0, 0, 0)
		syscalls++
		if errno != 0 {
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN || errno == syscall.EWOULDBLOCK ||
				errno == syscall.ENOBUFS || errno == syscall.ECONNREFUSED {
				// Buffer pressure (or a not-yet-listening peer's ICMP
				// bounce on a connected socket): the remainder drops,
				// exactly as a full TX ring drops.
				break
			}
			if errno == syscall.EBADF {
				runtime.KeepAlive(frames)
				return sent, syscalls, ErrClosed
			}
			runtime.KeepAlive(frames)
			return sent, syscalls, errno
		}
		if r == 0 {
			break
		}
		sent += int(r)
	}
	runtime.KeepAlive(frames)
	return sent, syscalls, nil
}

func (s *mmsgSocket) localAddr() string { return s.local }

func (s *mmsgSocket) close() error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return syscall.Close(s.fd)
}
