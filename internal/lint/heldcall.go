package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Heldcall keeps blocking and alloc-heavy work out of golc critical
// sections. A golc lock's hold time is the denominator of the entire
// load-control loop: the paper's controller sizes the sleep buffer from
// observed wait/hold ratios, so one fmt.Fprintf to a socket or one
// channel send inside a critical section doesn't just slow the holder
// — it convoys every waiter behind the lock and feeds the controller a
// hold-time distribution that looks like overload. Flagged while a
// golc lock is held: channel operations (send, receive, blocking
// select, range over channel), time.Sleep, fmt printing (Print*,
// Fprint* — Sprintf is fine), file/network/exec I/O, sync.WaitGroup/
// Cond waits, and calls whose whole-program facts say they
// transitively do any of the above. Callees that park are nestedpark's
// finding, not heldcall's — the two do not double-report: the WAL's
// commit path (wal.Log Commit, WaitDurable, ...) parks on the log's
// own golc latch or on its group-commit wait, so nestedpark reports
// it once, through facts.
var Heldcall = &Analyzer{
	Name: "heldcall",
	Doc: "no blocking or alloc-heavy operation (I/O, channel send/recv, time.Sleep, " +
		"fmt printing to writers, or any call that transitively reaches one and does " +
		"not park — a parking call is nestedpark's) inside a golc critical section; " +
		"blocking work under a lock convoys every waiter " +
		"and skews the hold-time signal the load controller steers by.",
	Run: runHeldcall,
}

func runHeldcall(pass *Pass) error {
	forEachFuncDecl(pass.Pkg, func(fd *ast.FuncDecl) {
		walkFunc(pass.Pkg.Info, fd.Body, pass.FactsOf, hooks{
			onCall: func(ci callInfo, held []heldLock, second bool) {
				if second || ci.callee == nil {
					return
				}
				h, ok := firstHeld(held)
				if !ok {
					return
				}
				if what, blocking := blockingCall(pass.Pkg.Info, ci); blocking {
					pass.Reportf(ci.call.Pos(),
						"blocking call to %s while %s is held (acquired at line %d): blocking work inside a critical section convoys every waiter behind the lock",
						what, heldName(h), pass.Pkg.Fset.Position(h.pos).Line)
					return
				}
				ff := pass.FactsOf(ci.callee)
				if ff == nil || !ff.Blocks || ff.Parks {
					// Parking callees are nestedpark's report.
					return
				}
				pass.Reportf(ci.call.Pos(),
					"call to %s does blocking work (%s) while %s is held (acquired at line %d): blocking work inside a critical section convoys every waiter behind the lock",
					displayFunc(ci.callee, ci.callee.Pkg() == pass.Pkg.Types), ff.BlockWhat,
					heldName(h), pass.Pkg.Fset.Position(h.pos).Line)
			},
			onChanOp: func(pos token.Pos, what string, held []heldLock, second bool) {
				if second {
					return
				}
				if h, ok := firstHeld(held); ok {
					pass.Reportf(pos,
						"%s while %s is held (acquired at line %d): a channel operation inside a critical section convoys every waiter behind the lock",
						what, heldName(h), pass.Pkg.Fset.Position(h.pos).Line)
				}
			},
		})
	})
	return nil
}

// blockingCall recognizes standard-library calls that block or do I/O —
// the direct half of heldcall's table (the transitive half is
// FuncFacts.Blocks). sync.Mutex.Lock is deliberately absent: a short
// std-mutex critical section nested under a golc latch is the
// sanctioned pattern for tiny leaf state.
func blockingCall(info *types.Info, ci callInfo) (string, bool) {
	fn := ci.callee
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := derefNamed(sig.Recv().Type()); n != nil {
			recv = n.Obj().Name()
		}
	}
	label := pkg + "." + name
	if recv != "" {
		label = "(" + pkg + "." + recv + ")." + name
	}
	switch pkg {
	case "time":
		if recv == "" && name == "Sleep" {
			return label, true
		}
	case "fmt":
		if recv == "" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			return label, true
		}
	case "log":
		if (recv == "" || recv == "Logger") &&
			(strings.HasPrefix(name, "Print") || name == "Output") {
			return label, true
		}
	case "os":
		switch recv {
		case "":
			switch name {
			case "ReadFile", "WriteFile", "Open", "Create", "OpenFile",
				"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir":
				return label, true
			}
		case "File":
			switch name {
			case "Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString", "Sync":
				return label, true
			}
		}
	case "io":
		switch recv {
		case "":
			switch name {
			case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "WriteString":
				return label, true
			}
		case "Reader", "Writer", "ReadWriter", "ReadCloser", "WriteCloser", "ReadWriteCloser":
			if name == "Read" || name == "Write" {
				return label, true
			}
		}
	case "bufio":
		switch recv {
		case "Reader", "Writer", "ReadWriter", "Scanner":
			if strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write") ||
				name == "Flush" || name == "Scan" {
				return label, true
			}
		}
	case "net":
		if recv == "" && (strings.HasPrefix(name, "Dial") || name == "Listen" || name == "ListenPacket") {
			return label, true
		}
		switch recv {
		case "Conn", "TCPConn", "UDPConn", "UnixConn":
			switch name {
			case "Read", "Write", "ReadFrom", "WriteTo":
				return label, true
			}
		case "Listener", "TCPListener", "UnixListener":
			if name == "Accept" || name == "AcceptTCP" || name == "AcceptUnix" {
				return label, true
			}
		}
	case "net/http":
		if recv == "" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head") {
			return label, true
		}
		switch recv {
		case "Client":
			switch name {
			case "Do", "Get", "Post", "PostForm", "Head":
				return label, true
			}
		case "ResponseWriter":
			if name == "Write" {
				return label, true
			}
		}
	case "os/exec":
		if recv == "Cmd" {
			switch name {
			case "Run", "Output", "CombinedOutput", "Start", "Wait":
				return label, true
			}
		}
	case "sync":
		if (recv == "WaitGroup" || recv == "Cond") && name == "Wait" {
			return label, true
		}
	}
	return "", false
}
