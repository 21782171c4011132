package faultinject

import (
	"fmt"
	"strconv"
	"strings"
)

// EnableSpec arms failpoints described by a comma-separated spec
// string, the form the real binaries accept via flags/environment so
// chaos drills (internal/smoke) can inject failures into an unmodified
// server:
//
//	name[:after=N][:count=M][,name2...]
//
// e.g. "core/checkpoint-save:count=1" makes the first checkpoint write
// fail once, and "fsx/write-atomic:after=2:count=-1" makes every
// atomic write from the third onward fail. Injected errors are always
// ErrInjected. An empty spec is a no-op.
func EnableSpec(spec string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		name := fields[0]
		if name == "" {
			return fmt.Errorf("faultinject: empty failpoint name in spec %q", spec)
		}
		var f Fault
		for _, field := range fields[1:] {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return fmt.Errorf("faultinject: malformed field %q in spec %q (want key=value)", field, spec)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("faultinject: non-integer %s value %q in spec %q", k, v, spec)
			}
			switch k {
			case "after":
				if n < 0 {
					return fmt.Errorf("faultinject: after must be >= 0 in spec %q", spec)
				}
				f.After = n
			case "count":
				f.Count = n
			default:
				return fmt.Errorf("faultinject: unknown field %q in spec %q", k, spec)
			}
		}
		Enable(name, f)
	}
	return nil
}
