package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/rpc"
	"sync"
	"time"

	"graphsurge/internal/core"
	"graphsurge/internal/obs"
)

// service is the RPC surface a worker exposes. It is deliberately thin:
// decode the shard, hand it to the engine, return the outcome. All warm
// state (the runner pools) lives in the engine, shared across jobs.
type service struct {
	eng      *core.Engine
	capacity int
	log      *slog.Logger

	// ctx is the server's shutdown context: Server.Close cancels it, which
	// aborts an in-flight segment at its next view boundary so the replica
	// returns to the pool instead of computing for a coordinator that is
	// gone.
	ctx context.Context

	mu   sync.Mutex
	jobs int

	// beforeRun, when set (tests), runs at the top of every RunSegment call —
	// the hook integration tests use to stall a worker and kill it mid-job.
	beforeRun func(spec *core.SegmentSpec)
}

// Hello implements the registration handshake.
func (s *service) Hello(args *HelloArgs, reply *HelloReply) error {
	if args.Version != ProtocolVersion {
		return fmt.Errorf("cluster: protocol version %d, worker speaks %d", args.Version, ProtocolVersion)
	}
	reply.Version = ProtocolVersion
	reply.Capacity = s.capacity
	return nil
}

// Ping implements the heartbeat.
func (s *service) Ping(_ *PingArgs, reply *PingReply) error {
	s.mu.Lock()
	reply.Jobs = s.jobs
	s.mu.Unlock()
	return nil
}

// RunSegment executes one shard on the worker's engine.
func (s *service) RunSegment(args *RunSegmentArgs, reply *RunSegmentReply) error {
	var spec core.SegmentSpec
	if err := DecodeWire(args.Spec, &spec); err != nil {
		return err
	}
	if hook := s.beforeRun; hook != nil {
		hook(&spec)
	}
	// net/rpc carries no per-call context, so the server's shutdown context
	// stands in, bounded by the coordinator's shipped job deadline: a worker
	// being closed aborts the shard at its next view boundary, and a call
	// the coordinator has timed out cannot pin a replica past the deadline.
	ctx := s.ctx
	if args.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(args.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	// When the coordinator shipped trace context, the worker's spans join
	// that trace: the remote Trace parents new spans under the coordinator's
	// shard span, and its records travel back in the reply to be stitched in.
	var tr *obs.Trace
	if args.RunID != "" && args.Trace.TraceID != "" {
		ctx, tr = obs.WithRemoteParent(ctx, args.RunID, args.Trace)
	}
	wctx, span := obs.StartSpan(ctx, "worker",
		obs.Int("start", spec.Start), obs.Int("end", spec.End), obs.String("collection", spec.Collection))
	out, err := s.eng.RunSegment(wctx, &spec)
	span.End()
	if err != nil {
		s.log.Warn("cluster: shard failed", obs.RunID(args.RunID),
			slog.Int("start", spec.Start), slog.Int("end", spec.End), slog.Any("error", err))
		return err
	}
	if tr != nil {
		reply.Spans = tr.Records()
	}
	reply.Outcome = *out
	s.mu.Lock()
	s.jobs++
	s.mu.Unlock()
	s.log.Debug("cluster: shard completed", obs.RunID(args.RunID),
		slog.Int("start", spec.Start), slog.Int("end", spec.End))
	return nil
}

// Server is a running worker: an RPC server wrapping an engine, tracking
// its connections so Close can sever in-flight calls — which is what lets a
// coordinator detect a killed worker immediately instead of waiting out the
// job deadline.
type Server struct {
	svc    *service
	rpc    *rpc.Server
	cancel context.CancelFunc // cancels svc.ctx; fired by Close

	mu     sync.Mutex
	l      net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer creates a worker server around an engine. capacity is the
// number of shards the worker advertises it can run concurrently (minimum
// 1); it should match the engine's Parallelism so concurrent jobs each get
// a replica instead of queuing on the pool.
func NewServer(eng *core.Engine, capacity int) *Server {
	if capacity < 1 {
		capacity = 1
	}
	//lint:ignore ctxflow server lifetime root: Close cancels it, no caller ctx outlives the server
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		svc:    &service{eng: eng, capacity: capacity, ctx: ctx, log: obs.Discard()},
		rpc:    rpc.NewServer(),
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	if err := s.rpc.RegisterName(ServiceName, s.svc); err != nil {
		// Registration only fails for a malformed service type — a
		// programming error, not a runtime condition.
		panic(err)
	}
	return s
}

// SetLogger routes the worker's structured job events to log (nil
// discards). Call before Start/Serve; the logger is read by RPC handler
// goroutines.
func (s *Server) SetLogger(log *slog.Logger) {
	if log == nil {
		log = obs.Discard()
	}
	s.svc.log = log
}

// Jobs returns the number of shards completed over the server's lifetime.
func (s *Server) Jobs() int {
	s.svc.mu.Lock()
	defer s.svc.mu.Unlock()
	return s.svc.jobs
}

// Start begins accepting connections on l in a background goroutine and
// returns immediately. The listener is owned by the server from here on:
// Close closes it.
func (s *Server) Start(l net.Listener) {
	s.mu.Lock()
	s.l = l
	s.mu.Unlock()
	go s.acceptLoop(l)
}

// Serve accepts connections on l until Close (or a fatal listener error) —
// the blocking form of Start, used by the CLI worker subcommand.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	s.l = l
	s.mu.Unlock()
	s.acceptLoop(l)
}

// Addr returns the listen address (nil before Start/ListenAndServe).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.l == nil {
		return nil
	}
	return s.l.Addr()
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			// Listener closed (Close) or fatal accept error: stop serving.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			s.rpc.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Close stops the server: the shutdown context is canceled (aborting any
// in-flight segment at its next view boundary, returning its replica), the
// listener closes, every open connection is severed (in-flight calls on the
// coordinator side fail immediately), and the accept loop exits. Connection
// goroutines finish on their own as their severed connections drain. The
// engine is left to the caller — its pools stay warm for a restarted
// server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cancel()
	l := s.l
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}
