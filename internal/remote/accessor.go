// Package remote provides the cross-process adapters for sensorcer's two
// remote interfaces: SensorDataAccessor (sensor reads) and the lookup
// service Registrar (registration/lookup). In Java/Jini these would be
// dynamic proxies serialized into the lookup service; in Go they are small
// hand-written stubs over the srpc transport. A provider process exports
// its accessor with ServeAccessor and registers a proxy descriptor; a
// consumer process materializes an AccessorClient from the descriptor.
package remote

import (
	"fmt"
	"time"

	"sensorcer/internal/sensor"
	"sensorcer/internal/sensor/probe"
	"sensorcer/internal/srpc"
)

// ProxyDesc is the serializable stand-in for a live service proxy: enough
// information for a remote peer to construct a stub.
type ProxyDesc struct {
	// Kind discriminates the stub type ("accessor").
	Kind string `json:"kind"`
	// Locator is the srpc endpoint (host:port).
	Locator string `json:"locator"`
	// Service scopes the methods on a shared endpoint (one process may
	// export several sensors).
	Service string `json:"service"`
}

// AccessorKind is the ProxyDesc kind for sensor data accessors.
const AccessorKind = "accessor"

// wireReading is the JSON form of a probe.Reading.
type wireReading struct {
	Sensor    string    `json:"sensor"`
	Kind      string    `json:"kind"`
	Unit      string    `json:"unit"`
	Value     float64   `json:"value"`
	Timestamp time.Time `json:"timestamp"`
}

func toWire(r probe.Reading) wireReading {
	return wireReading{Sensor: r.Sensor, Kind: r.Kind, Unit: r.Unit, Value: r.Value, Timestamp: r.Timestamp}
}

func fromWire(w wireReading) probe.Reading {
	return probe.Reading{Sensor: w.Sensor, Kind: w.Kind, Unit: w.Unit, Value: w.Value, Timestamp: w.Timestamp}
}

type wireInfo struct {
	Name       string `json:"name"`
	Technology string `json:"technology"`
	Kind       string `json:"kind"`
	Unit       string `json:"unit"`
}

type readingsParams struct {
	Service string `json:"service"`
	N       int    `json:"n"`
}

type serviceParams struct {
	Service string `json:"service"`
}

// ServeAccessor exports a DataAccessor on the srpc server under the given
// service name, returning the proxy descriptor to register in lookup
// services.
func ServeAccessor(server *srpc.Server, serviceName string, acc sensor.DataAccessor) ProxyDesc {
	srpc.HandleFunc(server, "accessor.getValue."+serviceName, func(serviceParams) (any, error) {
		r, err := acc.GetValue()
		if err != nil {
			return nil, err
		}
		return toWire(r), nil
	})
	srpc.HandleFunc(server, "accessor.getReadings."+serviceName, func(p readingsParams) (any, error) {
		readings := acc.GetReadings(p.N)
		out := make(wireReadings, len(readings))
		for i, r := range readings {
			out[i] = toWire(r)
		}
		return out, nil
	})
	srpc.HandleFunc(server, "accessor.describe."+serviceName, func(serviceParams) (any, error) {
		info := acc.Describe()
		return wireInfo{Name: info.Name, Technology: info.Technology, Kind: info.Kind, Unit: info.Unit}, nil
	})
	return ProxyDesc{Kind: AccessorKind, Locator: server.Addr(), Service: serviceName}
}

// AccessorClient is a sensor.DataAccessor stub over srpc.
type AccessorClient struct{ stub }

// NewAccessorClient materializes a stub from a proxy descriptor. Nothing
// is dialled until the stub's first call (see endpoint.go); timeout bounds
// that dial and each call.
func NewAccessorClient(desc ProxyDesc, timeout time.Duration) (*AccessorClient, error) {
	if desc.Kind != AccessorKind {
		return nil, fmt.Errorf("remote: descriptor kind %q is not an accessor", desc.Kind)
	}
	return &AccessorClient{stub{desc: desc, timeout: timeout}}, nil
}

// SensorName implements sensor.DataAccessor.
func (a *AccessorClient) SensorName() string { return a.desc.Service }

// GetValue implements sensor.DataAccessor.
func (a *AccessorClient) GetValue() (probe.Reading, error) {
	var w wireReading
	if err := a.call("accessor.getValue."+a.desc.Service, serviceParams{Service: a.desc.Service}, &w); err != nil {
		return probe.Reading{}, err
	}
	return fromWire(w), nil
}

// GetReadings implements sensor.DataAccessor.
func (a *AccessorClient) GetReadings(n int) []probe.Reading {
	var ws wireReadings
	if err := a.call("accessor.getReadings."+a.desc.Service, readingsParams{Service: a.desc.Service, N: n}, &ws); err != nil {
		return nil
	}
	out := make([]probe.Reading, len(ws))
	for i, w := range ws {
		out[i] = fromWire(w)
	}
	return out
}

// Describe implements sensor.DataAccessor.
func (a *AccessorClient) Describe() probe.Info {
	var w wireInfo
	if err := a.call("accessor.describe."+a.desc.Service, serviceParams{Service: a.desc.Service}, &w); err != nil {
		return probe.Info{Name: a.desc.Service}
	}
	return probe.Info{Name: w.Name, Technology: w.Technology, Kind: w.Kind, Unit: w.Unit}
}

var _ sensor.DataAccessor = (*AccessorClient)(nil)

// AccessorExporter returns a sensor.ProxyExporter backed by the srpc
// server: each locally created composite is exported under its name and
// registered as a dual proxy — live DataAccessor for in-process
// registrars, Describer (proxy descriptor) for remote ones.
func AccessorExporter(server *srpc.Server) func(name string, acc sensor.DataAccessor) any {
	return func(name string, acc sensor.DataAccessor) any {
		desc := ServeAccessor(server, name, acc)
		return exportedAccessor{DataAccessor: acc, desc: desc}
	}
}

// exportedAccessor is both a live accessor and a remote-describable proxy.
type exportedAccessor struct {
	sensor.DataAccessor
	desc ProxyDesc
}

// ProxyDesc implements Describer.
func (e exportedAccessor) ProxyDesc() ProxyDesc { return e.desc }
