// Command sensorbrowser is the zero-install Sensor Browser of the paper's
// Fig. 2: a text UI attached to a SenSORCER façade. It runs in two modes:
//
//	sensorbrowser -demo
//	    embeds a complete simulated deployment (four SPOT temperature
//	    sensors, two cybernodes, a provision monitor) and opens the
//	    browser on it — the fastest way to walk the paper's experiment.
//
//	sensorbrowser -lus host:port
//	    attaches to a remote lookup service exported by
//	    "sensorcerd lus" and browses the live cross-process network.
//
// Type "help" at the prompt for commands.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"sensorcer/internal/browser"
	"sensorcer/internal/clockwork"
	"sensorcer/internal/discovery"
	"sensorcer/internal/registry"
	"sensorcer/internal/remote"
	"sensorcer/internal/sensor"
	"sensorcer/internal/srpc"
	"sensorcer/internal/testbed"
)

func main() {
	demo := flag.Bool("demo", false, "run against an embedded simulated deployment")
	lusAddr := flag.String("lus", "", "remote lookup service locator (host:port)")
	discover := flag.String("discover", "", "UDP address to listen on for lookup-service announcements")
	token := flag.String("token", "", "shared secret for the deployment (empty = open)")
	script := flag.String("c", "", "run a single command and exit")
	flag.Parse()

	var controller *browser.Controller
	switch {
	case *demo:
		d := testbed.New(testbed.Config{})
		defer d.Close()
		// Pre-build the paper's subnet so "list"/"info" show something.
		if _, err := d.Facade.Network().ComposeService("Composite-Service",
			[]string{"Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"}, "(a + b + c)/3"); err != nil {
			fatal(err)
		}
		controller = browser.NewController(d.Facade, d.Mgr)
		fmt.Println("demo deployment up: 4 SPOT sensors, 2 cybernodes, 1 composite")
	case *lusAddr != "":
		rc, err := dialRegistrar(*lusAddr, *token)
		if err != nil {
			fatal(err)
		}
		defer rc.Close()
		bus := discovery.NewBus()
		defer bus.Announce(rc)()
		mgr := discovery.NewManager(bus)
		defer mgr.Terminate()
		facade := sensor.NewFacade("browser-facade", clockwork.Real(), mgr)
		attachExporter(facade)
		controller = browser.NewController(facade, mgr)
		fmt.Printf("attached to lookup service at %s\n", *lusAddr)
	case *discover != "":
		// Dynamic discovery: lookup services announce themselves over
		// UDP; each announcement's locator is dialed into a registrar
		// stub, and the browser tracks arrivals and departures.
		bus := discovery.NewBus()
		resolver := func(locator string) (registry.Registrar, error) {
			return dialRegistrar(locator, *token)
		}
		listener, err := discovery.NewUDPListener(*discover, nil, bus, resolver, clockwork.Real(), 10*time.Second)
		if err != nil {
			fatal(err)
		}
		defer listener.Close()
		mgr := discovery.NewManager(bus)
		defer mgr.Terminate()
		facade := sensor.NewFacade("browser-facade", clockwork.Real(), mgr)
		attachExporter(facade)
		controller = browser.NewController(facade, mgr)
		fmt.Printf("listening for lookup-service announcements on %s\n", listener.Addr())
		// Give the first announcement a moment to land before one-shot
		// commands run.
		if *script != "" {
			deadline := time.Now().Add(5 * time.Second)
			for len(mgr.Registrars()) == 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Millisecond)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "need -demo, -lus host:port, or -discover host:port")
		os.Exit(2)
	}

	if *script != "" {
		out, err := controller.Execute(*script)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
		return
	}

	fmt.Println(`SenSORCER sensor browser — "help" for commands, ctrl-D to exit`)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("sensorcer> ")
	for scanner.Scan() {
		out, err := controller.Execute(scanner.Text())
		if err != nil {
			fmt.Printf("error: %v\n", err)
		} else if out != "" {
			fmt.Println(out)
		}
		fmt.Print("sensorcer> ")
	}
	fmt.Println()
}

// dialRegistrar connects to a lookup service; an empty token means none.
func dialRegistrar(addr, token string) (*remote.RegistrarClient, error) {
	return remote.NewRegistrarClientWithToken(addr, token, 5*time.Second)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sensorbrowser:", err)
	os.Exit(1)
}

// attachExporter gives the browser's façade an srpc export server so
// composites composed from this browser are registered with proxy
// descriptors and stay reachable from other processes.
func attachExporter(facade *sensor.Facade) {
	server := srpc.NewServer()
	if err := server.Listen("127.0.0.1:0"); err != nil {
		fatal(err)
	}
	facade.Network().SetExporter(remote.AccessorExporter(server))
}
