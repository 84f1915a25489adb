// Command mucfuzzctl is the thin client CLI for a mucfuzzd daemon.
//
//	mucfuzzctl -addr :8377 submit -tenant acme -steps 40000
//	mucfuzzctl -addr :8377 status j0001
//	mucfuzzctl -addr :8377 watch j0001
//	mucfuzzctl -addr :8377 cancel j0001
//	mucfuzzctl -addr :8377 results j0001
//	mucfuzzctl -addr :8377 list [-tenant acme]
//
// submit speaks the same versioned JobSpec schema the daemon persists
// and binds its campaign flags with serve.BindFlags, like mucfuzz, so
// any local -macro campaign can be re-run as a service job by copying
// the flag values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/serve"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mucfuzzctl [-addr HOST:PORT] <submit|status|watch|cancel|results|list|health> [args]")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "localhost:8377", "mucfuzzd address")
	retries := flag.Int("retries", 8,
		"transient connection-error retries for reads (watch/status/list; 0 disables)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	c := &serve.Client{Addr: *addr}
	if *retries > 0 {
		// Reads survive a daemon restart mid-watch: refused connections
		// retry under a bounded seeded backoff instead of exiting.
		c.Retry = &resil.Policy{MaxAttempts: *retries}
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = runSubmit(c, args)
	case "status":
		err = runStatus(c, args)
	case "watch":
		err = runWatch(c, args)
	case "cancel":
		err = runOne(c, args, "cancel", func(id string) error {
			if cerr := c.Cancel(id); cerr != nil {
				return cerr
			}
			fmt.Printf("job %s: cancellation requested (stops at the next barrier)\n", id)
			return nil
		})
	case "results":
		err = runOne(c, args, "results", func(id string) error {
			data, rerr := c.Results(id)
			if rerr != nil {
				return rerr
			}
			os.Stdout.Write(data)
			return nil
		})
	case "list":
		err = runList(c, args)
	case "health":
		h, herr := c.Health()
		if herr != nil {
			err = herr
		} else {
			fmt.Printf("active jobs: %d   tenants: %d   admission breaker: %s   disk level: %s\n",
				h.ActiveJobs, h.Tenants, h.Breaker, h.DiskLevel)
			if len(h.PausedTenants) > 0 {
				fmt.Printf("paused tenants: %s\n", strings.Join(h.PausedTenants, ", "))
			}
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runOne handles the one-job-id subcommands.
func runOne(c *serve.Client, args []string, name string, fn func(id string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mucfuzzctl %s JOB_ID", name)
	}
	return fn(args[0])
}

func runSubmit(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	spec := serve.BindFlags(fs)
	fs.StringVar(&spec.Tenant, "tenant", "", "submitting tenant (required)")
	fs.StringVar(&spec.Name, "name", "", "human label for the job")
	fs.IntVar(&spec.StepsPerEpoch, "steps-per-epoch", 32, "per-stream steps between barriers")
	wait := fs.Bool("wait", false, "block until the job is terminal, then print results")
	fs.Parse(args)
	id, err := c.Submit(*spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted: %s\n", id)
	if !*wait {
		return nil
	}
	if err := watch(c, id); err != nil {
		return err
	}
	data, err := c.Results(id)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	return nil
}

func runStatus(c *serve.Client, args []string) error {
	return runOne(c, args, "status", func(id string) error {
		st, err := c.Status(id)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	})
}

func runWatch(c *serve.Client, args []string) error {
	return runOne(c, args, "watch", func(id string) error { return watch(c, id) })
}

// watch polls the job until it is terminal, printing one progress line
// per state change or step-count advance.
func watch(c *serve.Client, id string) error {
	lastDone, lastState := -1, serve.JobState("")
	rec, err := c.Wait(id, 500*time.Millisecond, 0, func(r serve.JobRecord) {
		if r.Done == lastDone && r.State == lastState {
			return
		}
		lastDone, lastState = r.Done, r.State
		fmt.Printf("job %s [%s] %d/%d steps   %d epochs   %d edges   %d crashes\n",
			r.ID, r.State, r.Done, r.Spec.Steps, r.Epochs, r.Edges, r.Crashes)
	})
	if err != nil {
		return err
	}
	switch rec.State {
	case serve.Failed:
		return fmt.Errorf("job %s failed: %s", id, rec.Error)
	case serve.Quarantined:
		return fmt.Errorf("job %s quarantined: %s", id, rec.Error)
	}
	return nil
}

func runList(c *serve.Client, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	tenant := fs.String("tenant", "", "filter by tenant")
	fs.Parse(args)
	recs, err := c.Jobs(*tenant)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %-12s %10s %8s %8s  %s\n",
		"ID", "TENANT", "STATE", "STEPS", "EDGES", "CRASHES", "NAME")
	for _, r := range recs {
		fmt.Printf("%-8s %-12s %-12s %4d/%-5d %8d %8d  %s\n",
			r.ID, r.Tenant, r.State, r.Done, r.Spec.Steps, r.Edges, r.Crashes, r.Spec.Name)
	}
	return nil
}
