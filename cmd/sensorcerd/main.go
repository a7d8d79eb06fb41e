// Command sensorcerd runs SenSORCER network components as standalone
// processes, connected over srpc — the cross-process deployment mode.
//
// Start a lookup service:
//
//	sensorcerd lus -listen 127.0.0.1:4160
//
// Start a simulated SPOT sensor node that registers with it:
//
//	sensorcerd esp -name Neem-Sensor -lus 127.0.0.1:4160 -seed 1
//
// Host a shard backup replica in its own process (a primary elsewhere
// ships its journal to it over srpc):
//
//	sensorcerd shard -name s0 -listen 127.0.0.1:4170 -dir /var/lib/sensorcer/s0
//
// Then browse the network from a third process:
//
//	sensorbrowser -lus 127.0.0.1:4160
//
// The lus process also hosts coordination leases, so coordinator
// replicas in other processes can compete for the space-coordinator
// role with fencing tokens (see internal/repl's coordination plane).
//
// Components keep their registration leases renewed; killing an esp
// process makes its service expire from the lookup service within the
// lease term, exactly the paper's crash semantics.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sensorcer/internal/attr"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/lease"
	"sensorcer/internal/registry"
	"sensorcer/internal/remote"
	"sensorcer/internal/repl"
	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/spot"
	"sensorcer/internal/srpc"
	"sensorcer/internal/subscribe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "lus":
		runLUS(os.Args[2:])
	case "esp":
		runESP(os.Args[2:])
	case "shard":
		runShard(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  sensorcerd lus -listen host:port [-lease-max 30s] [-token secret] [-announce host:port] [-groups g1,g2]
  sensorcerd esp -name <name> -lus host:port [-listen host:port] [-seed n] [-interval 1s] [-lease 10s] [-token secret] [-push]
  sensorcerd shard -name <shard> -listen host:port [-dir path] [-lease-max 30s] [-token secret]`)
	os.Exit(2)
}

func runLUS(args []string) {
	fs := flag.NewFlagSet("lus", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:4160", "srpc listen address")
	leaseMax := fs.Duration("lease-max", 30*time.Second, "maximum registration lease")
	token := fs.String("token", "", "shared secret required from clients (empty = open)")
	announce := fs.String("announce", "", "UDP address to send discovery announcements to (optional)")
	groups := fs.String("groups", discovery.PublicGroup, "comma-separated discovery groups")
	fs.Parse(args)

	clock := clockwork.Real()
	lus := registry.New(*listen, clock,
		registry.WithLeasePolicy(lease.Policy{Max: *leaseMax}))
	defer lus.Close()

	server := srpc.NewServer()
	if *token != "" {
		server.SetToken(*token)
	}
	if err := server.Listen(*listen); err != nil {
		fatal(err)
	}
	defer server.Close()
	remote.ServeRegistrar(server, lus)
	// The lookup service doubles as the coordination-lease host, so
	// coordinator replicas in other processes can compete for
	// single-holder roles with fencing tokens.
	remote.ServeCoordination(server, lus)

	// Sweep expired registrations periodically so crashed providers
	// disappear even with no lookup traffic.
	stop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				lus.SweepNow()
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)

	if *announce != "" {
		ann, err := discovery.NewAnnouncer(*announce, discovery.Packet{
			ID:      lus.ID(),
			Name:    lus.Name(),
			Groups:  strings.Split(*groups, ","),
			Locator: server.Addr(),
		}, 2*time.Second)
		if err != nil {
			fatal(err)
		}
		defer ann.Stop()
		fmt.Printf("announcing to %s (groups %s)\n", *announce, *groups)
	}

	fmt.Printf("lookup service %s serving on %s (lease max %v)\n", lus.ID().Short(), server.Addr(), *leaseMax)
	waitForSignal()
}

func runESP(args []string) {
	fs := flag.NewFlagSet("esp", flag.ExitOnError)
	name := fs.String("name", "Spot-Sensor", "sensor service name")
	lusAddr := fs.String("lus", "127.0.0.1:4160", "lookup service locator")
	seed := fs.Int64("seed", 1, "simulation seed")
	interval := fs.Duration("interval", time.Second, "background sample interval (0 = on demand)")
	listen := fs.String("listen", "127.0.0.1:0", "srpc export address")
	leaseDur := fs.Duration("lease", 10*time.Second, "registration lease to request")
	token := fs.String("token", "", "shared secret for the deployment (empty = open)")
	push := fs.Bool("push", false, "serve push subscriptions (multiplexed streams) alongside polled reads")
	fs.Parse(args)

	clock := clockwork.Real()
	device := spot.NewDevice(spot.Config{Name: *name, Clock: clock})
	device.Attach(spot.NewTemperatureModel(22, 6, 0, 0.3, *seed))
	opts := []sensor.ESPOption{sensor.WithClock(clock)}
	if *interval > 0 {
		opts = append(opts, sensor.WithSampleInterval(*interval))
	}
	esp := sensor.NewESP(*name, probe.NewSpotProbe(*name, device, "temperature", nil), opts...)
	esp.Start()
	defer esp.Close()

	server := srpc.NewServer()
	if *token != "" {
		server.SetToken(*token)
	}
	if err := server.Listen(*listen); err != nil {
		fatal(err)
	}
	defer server.Close()
	desc := remote.ServeAccessor(server, *name, esp)
	if *push {
		// Subscription plane: every background sample marks the source
		// dirty; one evaluation fans out to all stream subscribers.
		hub := subscribe.NewHub(subscribe.WithHubClock(clock))
		defer hub.Close()
		src := subscribe.NewSource(hub, esp)
		src.Start()
		defer src.Stop()
		if _, err := esp.Events().Register(sensor.EventReadingUpdate, src.Listener(), 24*time.Hour); err != nil {
			fatal(err)
		}
		remote.ServeSubscriptions(server, hub)
	}

	rc, err := dialRegistrar(*lusAddr, *token)
	if err != nil {
		fatal(err)
	}
	defer rc.Close()
	info := esp.Describe()
	reg, err := rc.Register(registry.ServiceItem{
		Service: desc,
		Types:   []string{sensor.AccessorType},
		Attributes: attr.Set{
			attr.Name(*name),
			attr.SensorType(info.Kind, info.Unit),
			attr.ServiceType(sensor.CategoryElementary),
		},
	}, *leaseDur)
	if err != nil {
		fatal(err)
	}
	renewals := lease.NewRenewalManager(clock, lease.WithRequest(*leaseDur),
		lease.WithFailureHandler(func(_ *lease.Lease, err error) {
			fmt.Fprintf(os.Stderr, "lease renewal failed: %v\n", err)
		}))
	defer renewals.Stop()
	renewals.Manage(&reg.Lease)

	fmt.Printf("%s exporting on %s, registered at %s as %s\n",
		*name, server.Addr(), *lusAddr, reg.ServiceID.Short())
	waitForSignal()
	// Orderly departure.
	_ = rc.Deregister(reg.ServiceID)
}

// runShard hosts one shard backup replica as its own process: a
// repl.Node over a WAL directory, serving the replication endpoints
// (batch ship, snapshot install, heartbeat) over srpc. A primary in
// another process attaches it as a follower and ships its journal here,
// so the shard's redundancy survives the primary's machine.
func runShard(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	name := fs.String("name", "s0", "shard name the primary dials (must match its shard)")
	listen := fs.String("listen", "127.0.0.1:0", "srpc listen address")
	dir := fs.String("dir", "", "WAL directory for the replica (empty = fresh temp dir)")
	leaseMax := fs.Duration("lease-max", 30*time.Second, "maximum entry lease on the hosted replica")
	token := fs.String("token", "", "shared secret required from clients (empty = open)")
	fs.Parse(args)

	clock := clockwork.Real()
	if *dir == "" {
		d, err := os.MkdirTemp("", "sensorcerd-shard-*")
		if err != nil {
			fatal(err)
		}
		*dir = d
	}
	node, err := repl.NewNode(*name+"-backup", clock, lease.Policy{Max: *leaseMax}, *dir)
	if err != nil {
		fatal(err)
	}
	defer node.Close()

	server := srpc.NewServer()
	if *token != "" {
		server.SetToken(*token)
	}
	if err := server.Listen(*listen); err != nil {
		fatal(err)
	}
	defer server.Close()
	desc := remote.ServeReplication(server, *name, node)

	fmt.Printf("shard %s backup serving on %s (wal %s)\n", *name, desc.Locator, *dir)
	waitForSignal()
}

// dialRegistrar connects to a lookup service; an empty token means none.
func dialRegistrar(addr, token string) (*remote.RegistrarClient, error) {
	return remote.NewRegistrarClientWithToken(addr, token, 5*time.Second)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("\nshutting down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sensorcerd:", err)
	os.Exit(1)
}
