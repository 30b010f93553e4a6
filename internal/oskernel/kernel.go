// Package oskernel simulates the OS-level enforcement layer of CamFlow
// (Section 8.2.1): a kernel whose objects — processes, files, pipes — all
// carry IFC security metadata, with an LSM-style security hook interposed
// on every inter-entity transfer. The hook both enforces the flow rule and
// records the attempt, so "all data flows can be tracked to enable audit,
// provenance and potentially demonstrate compliance".
//
// Substitution note (see DESIGN.md): this replaces the Linux kernel + LSM
// module. The paper's argument depends on *where* enforcement happens
// (below applications, unavoidable, on every flow), which the simulation
// preserves: there is no API for moving bytes between kernel objects that
// bypasses the hook. Hooks can be disabled wholesale to measure their cost
// (benchmark B1), mirroring the paper's "LSM performance overhead is
// minimal" claim.
package oskernel

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lciot/internal/audit"
	"lciot/internal/ifc"
)

// Errors reported by the kernel.
var (
	ErrNoProcess  = errors.New("oskernel: no such process")
	ErrNoFile     = errors.New("oskernel: no such file")
	ErrNoPipe     = errors.New("oskernel: no such pipe")
	ErrExists     = errors.New("oskernel: file exists")
	ErrUnmediated = errors.New("oskernel: unmediated external communication prevented")
)

// A PID identifies a process.
type PID uint64

// A PipeID identifies a pipe.
type PipeID uint64

// A Process is an active kernel entity.
type Process struct {
	pid    PID
	entity *ifc.Entity
	// substrateDelegate marks the messaging-substrate process allowed to
	// perform external transfers on behalf of labelled processes (Fig. 9).
	substrateDelegate bool
}

// PID returns the process identifier.
func (p *Process) PID() PID { return p.pid }

// Entity exposes the process's IFC entity.
func (p *Process) Entity() *ifc.Entity { return p.entity }

// A file is a passive kernel object with content.
type file struct {
	entity *ifc.Entity
	data   []byte
}

// A pipe is a unidirectional kernel buffer between processes.
type pipe struct {
	entity *ifc.Entity
	buf    [][]byte
}

// A Kernel is one simulated OS instance.
type Kernel struct {
	name string
	log  *audit.Log
	// hooksEnabled gates the LSM layer; disabling it removes both checks
	// and audit, the baseline for benchmark B1.
	hooksEnabled bool

	mu       sync.Mutex
	procs    map[PID]*Process
	files    map[string]*file
	pipes    map[PipeID]*pipe
	nextPID  PID
	nextPipe PipeID
}

// NewKernel boots a kernel with LSM hooks enabled. A nil log allocates a
// private one.
func NewKernel(name string, log *audit.Log) *Kernel {
	if log == nil {
		log = audit.NewLog(nil)
	}
	return &Kernel{
		name:         name,
		log:          log,
		hooksEnabled: true,
		procs:        make(map[PID]*Process),
		files:        make(map[string]*file),
		pipes:        make(map[PipeID]*pipe),
	}
}

// SetHooksEnabled toggles the LSM layer (benchmarking only; a production
// kernel would never expose this).
func (k *Kernel) SetHooksEnabled(on bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.hooksEnabled = on
}

// Log exposes the kernel's audit log.
func (k *Kernel) Log() *audit.Log { return k.log }

// Boot creates an initial process with the given context (e.g. an
// application manager); it is the only way to obtain a process without a
// parent.
func (k *Kernel) Boot(name string, ctx ifc.SecurityContext) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPID++
	p := &Process{
		pid:    k.nextPID,
		entity: ifc.NewEntity(ifc.EntityID(fmt.Sprintf("%s:pid%d:%s", k.name, k.nextPID, name)), ctx),
	}
	k.procs[p.pid] = p
	return p
}

// Process looks a process up.
func (k *Kernel) Process(pid PID) (*Process, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Fork spawns a child of the given process. Creation flows: the child
// inherits the parent's labels but never its privileges (Section 6).
func (k *Kernel) Fork(parent PID, name string) (*Process, error) {
	p, err := k.Process(parent)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPID++
	child := &Process{
		pid: k.nextPID,
		entity: ifc.NewEntity(
			ifc.EntityID(fmt.Sprintf("%s:pid%d:%s", k.name, k.nextPID, name)),
			ifc.CreationContext(p.entity.Context()),
		),
	}
	k.procs[child.pid] = child
	return child, nil
}

// Exit removes a process.
func (k *Kernel) Exit(pid PID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.procs, pid)
}

// MarkSubstrate designates a process as the messaging-substrate delegate
// permitted to perform external transfers (Fig. 9's CamFlow-Messaging).
func (k *Kernel) MarkSubstrate(pid PID) error {
	p, err := k.Process(pid)
	if err != nil {
		return err
	}
	p.substrateDelegate = true
	return nil
}

// hook is the LSM security hook: it enforces the IFC flow rule between a
// subject and an object and audits the outcome. Every kernel operation that
// moves data passes through here.
func (k *Kernel) hook(op string, src, dst *ifc.Entity, dataID string) error {
	if !k.hooksEnabled {
		return nil
	}
	srcCtx, dstCtx := src.Context(), dst.Context()
	if err := ifc.EnforceFlow(srcCtx, dstCtx); err != nil {
		k.log.AppendAsync(audit.Record{
			Kind: audit.FlowDenied, Layer: audit.LayerKernel, Domain: k.name,
			Src: src.ID(), Dst: dst.ID(), SrcCtx: srcCtx, DstCtx: dstCtx,
			DataID: dataID, Note: op + " denied: " + err.Error(),
		})
		return fmt.Errorf("%s: %w", op, err)
	}
	// The hook runs on every data-moving kernel operation; the audit
	// record is batched onto the background hasher (audit.Log.AppendAsync)
	// so enforcement does not serialise behind the hash chain.
	k.log.AppendAsync(audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerKernel, Domain: k.name,
		Src: src.ID(), Dst: dst.ID(), SrcCtx: srcCtx, DstCtx: dstCtx,
		DataID: dataID, Note: op,
	})
	return nil
}

// Create makes a new file owned by the process; per the creation-flow rule
// it inherits the process's labels.
func (k *Kernel) Create(pid PID, path string) error {
	p, err := k.Process(pid)
	if err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.files[path]; dup {
		return fmt.Errorf("%w: %q", ErrExists, path)
	}
	k.files[path] = &file{
		entity: ifc.NewPassiveEntity(
			ifc.EntityID(k.name+":file:"+path),
			ifc.CreationContext(p.entity.Context()),
		),
	}
	return nil
}

// Write appends data to a file, subject to the process→file flow check.
func (k *Kernel) Write(pid PID, path string, data []byte) error {
	p, err := k.Process(pid)
	if err != nil {
		return err
	}
	k.mu.Lock()
	f, ok := k.files[path]
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	if err := k.hook("write", p.entity, f.entity, path); err != nil {
		return err
	}
	k.mu.Lock()
	f.data = append(f.data, data...)
	k.mu.Unlock()
	return nil
}

// Read returns a file's content, subject to the file→process flow check.
func (k *Kernel) Read(pid PID, path string) ([]byte, error) {
	p, err := k.Process(pid)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	f, ok := k.files[path]
	k.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFile, path)
	}
	if err := k.hook("read", f.entity, p.entity, path); err != nil {
		return nil, err
	}
	k.mu.Lock()
	out := make([]byte, len(f.data))
	copy(out, f.data)
	k.mu.Unlock()
	return out, nil
}

// MkPipe creates a pipe labelled with the creating process's context.
func (k *Kernel) MkPipe(pid PID) (PipeID, error) {
	p, err := k.Process(pid)
	if err != nil {
		return 0, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextPipe++
	k.pipes[k.nextPipe] = &pipe{
		entity: ifc.NewPassiveEntity(
			ifc.EntityID(fmt.Sprintf("%s:pipe%d", k.name, k.nextPipe)),
			ifc.CreationContext(p.entity.Context()),
		),
	}
	return k.nextPipe, nil
}

// WritePipe sends one datagram into a pipe (process→pipe flow).
func (k *Kernel) WritePipe(pid PID, id PipeID, data []byte) error {
	p, err := k.Process(pid)
	if err != nil {
		return err
	}
	k.mu.Lock()
	pp, ok := k.pipes[id]
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoPipe, id)
	}
	if err := k.hook("pipe-write", p.entity, pp.entity, fmt.Sprintf("pipe%d", id)); err != nil {
		return err
	}
	owned := make([]byte, len(data))
	copy(owned, data)
	k.mu.Lock()
	pp.buf = append(pp.buf, owned)
	k.mu.Unlock()
	return nil
}

// ReadPipe receives the oldest datagram from a pipe (pipe→process flow).
func (k *Kernel) ReadPipe(pid PID, id PipeID) ([]byte, error) {
	p, err := k.Process(pid)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	pp, ok := k.pipes[id]
	k.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoPipe, id)
	}
	if err := k.hook("pipe-read", pp.entity, p.entity, fmt.Sprintf("pipe%d", id)); err != nil {
		return nil, err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(pp.buf) == 0 {
		return nil, nil
	}
	out := pp.buf[0]
	pp.buf = pp.buf[1:]
	return out, nil
}

// SetContext relabels a process via its own privileges, audited as a
// context change.
func (k *Kernel) SetContext(pid PID, to ifc.SecurityContext) error {
	p, err := k.Process(pid)
	if err != nil {
		return err
	}
	from := p.entity.Context()
	if err := p.entity.SetContext(to); err != nil {
		return err
	}
	if k.hooksEnabled {
		k.log.AppendAsync(audit.Record{
			Kind: audit.ContextChange, Layer: audit.LayerKernel, Domain: k.name,
			Src: p.entity.ID(), SrcCtx: from, DstCtx: to, Note: "setcontext",
		})
	}
	return nil
}

// ExternalSend models a process attempting network I/O outside the managed
// substrate. CamFlow prevents "unmediated external communication of
// labelled processes, since the context of security across the remote
// machine is unknown to the kernel": only public processes or the marked
// substrate delegate may pass.
func (k *Kernel) ExternalSend(pid PID, data []byte) error {
	p, err := k.Process(pid)
	if err != nil {
		return err
	}
	ctx := p.entity.Context()
	if ctx.IsPublic() || p.substrateDelegate {
		if k.hooksEnabled {
			k.log.AppendAsync(audit.Record{
				Kind: audit.FlowAllowed, Layer: audit.LayerKernel, Domain: k.name,
				Src: p.entity.ID(), Dst: "external", SrcCtx: ctx, Note: "external send",
			})
		}
		return nil
	}
	if k.hooksEnabled {
		k.log.AppendAsync(audit.Record{
			Kind: audit.FlowDenied, Layer: audit.LayerKernel, Domain: k.name,
			Src: p.entity.ID(), Dst: "external", SrcCtx: ctx,
			Note: "unmediated external communication prevented",
		})
	}
	return fmt.Errorf("%w: pid %d %s", ErrUnmediated, pid, ctx)
}

// Files lists file paths, sorted (diagnostics).
func (k *Kernel) Files() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]string, 0, len(k.files))
	for p := range k.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
