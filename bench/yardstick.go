package main

import (
	"hash/crc32"
	"syscall"
	"time"
)

// The yardstick is a fixed piece of work that an un-traced run does after
// every timed op: CRC-32C and copy of cold 4 MiB chunks, the memory
// streaming a replica read does and the thing the host's other tenants
// slow down most. The three timings are reported at the speed at which
// the box ran the yardstick around the op (README.md, "Why a yardstick").
const (
	yardChunk = 4 << 20
	yardBuf   = 32 << 20 // each of source and destination: past the caches
	// yardNominal is a chunk's time on this box with quiet neighbours;
	// timings are scaled to it, so they read as this box's quiet-time
	// milliseconds.
	yardNominal = 1250 * time.Microsecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// yardstick's buffers are mapped outside the Go heap: 64 MiB of live heap
// would double the collector's goal and change the program being measured.
type yardstick struct {
	mem []byte // source, then destination
	pos int
	sum uint32 // keeps the CRC from being optimised away
}

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, 2*yardBuf, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	for i := range mem {
		mem[i] = byte(i * 7)
	}
	return &yardstick{mem: mem}, nil
}

func (y *yardstick) close() error { return syscall.Munmap(y.mem) }

// run streams one chunk, or as many as take about a thirtieth of d, the
// op just timed, and returns the time per chunk and the time it took.
func (y *yardstick) run(d time.Duration) (perChunk, total time.Duration) {
	n := max(1, int(d/(30*yardNominal)))
	start := time.Now()
	for k := 0; k < n; k++ {
		src := y.mem[y.pos : y.pos+yardChunk]
		y.sum += crc32.Update(0, castagnoli, src)
		copy(y.mem[yardBuf+y.pos:], src)
		y.pos = (y.pos + yardChunk) % yardBuf
	}
	total = time.Since(start)
	return total / time.Duration(n), total
}

// sample is the median of n single chunks.
func (y *yardstick) sample(n int) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i], _ = y.run(0)
	}
	return quantile(ds, 0.5)
}
