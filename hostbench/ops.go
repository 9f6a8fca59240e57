package main

import (
	"bytes"
	"time"

	"repro/internal/vfs"
	"repro/internal/workload"
)

// The syscalls the workload drivers issue, in report order.
const (
	opCreate = iota
	opOpen
	opRead
	opWrite
	opClose
	opUnlink
	opMkdir
	numOps
)

var opNames = [numOps]string{"create", "open", "read", "write", "close", "unlink", "mkdir"}

// opLog collects one stack's host-side view of its syscalls: the host
// nanoseconds of every call, per syscall, plus failures.
type opLog struct {
	ns       [numOps][]int64
	calls    int64
	errs     int64
	badReads int64 // reads that returned a short count or wrong bytes
}

func (l *opLog) done(op int, t0 time.Time, err error) {
	l.ns[op] = append(l.ns[op], int64(time.Since(t0)))
	l.calls++
	if err != nil {
		l.errs++
	}
}

// timedOps is the workload.Ops a driver receives: it forwards each call to
// the stack, times it on the host clock and checks every read. The
// simulated behaviour is untouched: it issues exactly the calls the
// driver makes, in the same order.
type timedOps struct {
	inner workload.Ops
	log   *opLog
	// want, when non-nil, is the content every read must return (one
	// chunk of the pattern the preceding write phase laid down); nil
	// checks only the length.
	want []byte
}

func (o *timedOps) Mkdir(path string) error {
	t0 := time.Now()
	err := o.inner.Mkdir(path)
	o.log.done(opMkdir, t0, err)
	return err
}

func (o *timedOps) Create(path string) (vfs.File, error) {
	t0 := time.Now()
	f, err := o.inner.Create(path)
	o.log.done(opCreate, t0, err)
	return f, err
}

func (o *timedOps) Open(path string) (vfs.File, error) {
	t0 := time.Now()
	f, err := o.inner.Open(path)
	o.log.done(opOpen, t0, err)
	return f, err
}

func (o *timedOps) Close(f vfs.File) error {
	t0 := time.Now()
	err := o.inner.Close(f)
	o.log.done(opClose, t0, err)
	return err
}

func (o *timedOps) ReadFileAt(f vfs.File, off int64, buf []byte) (int, error) {
	t0 := time.Now()
	n, err := o.inner.ReadFileAt(f, off, buf)
	o.log.done(opRead, t0, err)
	if err == nil && (n != len(buf) || o.want != nil && !bytes.Equal(buf, o.want[:len(buf)])) {
		o.log.badReads++
	}
	return n, err
}

func (o *timedOps) WriteFileAt(f vfs.File, off int64, data []byte) (int, error) {
	t0 := time.Now()
	n, err := o.inner.WriteFileAt(f, off, data)
	o.log.done(opWrite, t0, err)
	return n, err
}

func (o *timedOps) Unlink(path string) error {
	t0 := time.Now()
	err := o.inner.Unlink(path)
	o.log.done(opUnlink, t0, err)
	return err
}

// WriteFile issues the same create, write, close sequence as
// testbed.Client.WriteFile, through the timed calls above.
func (o *timedOps) WriteFile(path string, data []byte) error {
	f, err := o.Create(path)
	if err != nil {
		return err
	}
	if _, err := o.WriteFileAt(f, 0, data); err != nil {
		return err
	}
	return o.Close(f)
}
