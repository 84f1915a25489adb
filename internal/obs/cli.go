package obs

import (
	"flag"
	"fmt"
	"net/http"
	"os"
)

// CLIOptions carries the standard observability flags every campaign
// CLI exposes (mucfuzz, metamut, experiments).
type CLIOptions struct {
	// StatsInterval prints a one-line live status every N steps
	// (0 disables); each CLI decides what a "step" is.
	StatsInterval int
	// MetricsOut writes a final JSON snapshot to this file on exit.
	MetricsOut string
	// DebugAddr serves /debug/metrics, /debug/vars and /debug/pprof.
	DebugAddr string
}

// BindCLIFlags registers the standard flags on the default flag set
// and returns the options they fill (read after flag.Parse).
func BindCLIFlags() *CLIOptions {
	o := &CLIOptions{}
	flag.IntVar(&o.StatsInterval, "stats-interval", 0,
		"print a live status line every N steps (0 disables)")
	flag.StringVar(&o.MetricsOut, "metrics-out", "",
		"write a final JSON metrics snapshot to this file")
	flag.StringVar(&o.DebugAddr, "debug-addr", "",
		"serve /debug/metrics and /debug/pprof on this address (e.g. :6060)")
	return o
}

// Activate wires the options into the registry: starts the debug
// server (mounting any extra routes, e.g. the flight recorder's console
// endpoints) and publishes the registry under the given expvar name.
// The returned shutdown function writes the final metrics snapshot;
// call it exactly once (e.g. via defer) after the campaign finishes.
func (o *CLIOptions) Activate(reg *Registry, expvarName string, extra ...Route) (func() error, error) {
	var srv *http.Server
	if o.DebugAddr != "" {
		s, addr, err := reg.ServeDebug(o.DebugAddr, extra...)
		if err != nil {
			return nil, fmt.Errorf("obs: debug server: %w", err)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "[obs] debug server on http://%s/debug/metrics\n", addr)
	}
	reg.PublishExpvar(expvarName)
	shutdown := func() error {
		var err error
		if o.MetricsOut != "" {
			err = reg.Snapshot().WriteJSON(o.MetricsOut)
		}
		if srv != nil {
			srv.Close()
		}
		return err
	}
	return shutdown, nil
}
