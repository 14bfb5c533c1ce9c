package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished child process, measured from the outside.
type procRun struct {
	Start  time.Time
	Ready  time.Time // first stdout line, when the child announces it
	End    time.Time
	CPU    float64 // user+sys seconds
	RSSMB  float64 // peak resident set, MiB
	Stdout []byte
	Err    error
}

func (p *procRun) wall() float64 { return p.End.Sub(p.Start).Seconds() }

// runProc starts path with args, captures stdout, forwards stderr, and
// waits. When ready is set, the first stdout line marks Ready and is not
// kept in Stdout.
func runProc(path string, args []string, ready bool) procRun {
	cmd := exec.Command(path, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive perfbench
	out, err := cmd.StdoutPipe()
	if err != nil {
		return procRun{Err: err}
	}
	var p procRun
	p.Start = time.Now()
	if err := cmd.Start(); err != nil {
		return procRun{Err: err}
	}
	br := bufio.NewReader(out)
	if ready {
		if _, err := br.ReadString('\n'); err == nil {
			p.Ready = time.Now()
		}
	}
	var buf bytes.Buffer
	_, copyErr := io.Copy(&buf, br)
	p.Err = cmd.Wait()
	p.End = time.Now()
	if p.Err == nil && copyErr != nil {
		p.Err = copyErr
	}
	p.Stdout = buf.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.CPU = tv(ru.Utime) + tv(ru.Stime)
		p.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if p.Err != nil {
		p.Err = fmt.Errorf("%s: %w", path, p.Err)
	}
	return p
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU reads a live process's user+sys CPU seconds from /proc.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// After ')': state is field 3 of stat(5), so utime (14) and stime
	// (15) sit at offsets 11 and 12.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}
