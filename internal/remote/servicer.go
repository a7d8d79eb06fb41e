package remote

import (
	"errors"
	"fmt"
	"time"

	"sensorcer/internal/sorcer"
	"sensorcer/internal/srpc"
	"sensorcer/internal/txn"
)

// ServicerKind is the ProxyDesc kind for exertion-capable peers: with it,
// federated method invocation crosses process boundaries — a remote
// provider serves tasks exactly as an in-process one does.
const ServicerKind = "servicer"

// wireTask is the wire form of an elementary exertion: its signature and
// its service context, encoded as the space's task journal encodes it
// (sorcer.AppendContext). Context values must be strings, booleans,
// integers, floats or JSON-representable; richer values stay in-process.
// It has a binary form only: a JSON payload leaves the context empty.
type wireTask struct {
	Name         string
	ServiceType  string
	Selector     string
	ProviderName string
	Context      *sorcer.Context `json:"-"`
}

// wireTaskResult carries the post-execution context back.
type wireTaskResult struct {
	Context *sorcer.Context `json:"-"`
}

// ServeServicer exports a Servicer on the srpc server under the service
// name, returning its proxy descriptor. Remote transactions are not
// supported: tasks arriving over the wire run transaction-free.
func ServeServicer(server *srpc.Server, serviceName string, svc sorcer.Servicer) ProxyDesc {
	srpc.HandleFunc(server, "servicer.service."+serviceName, func(p wireTask) (any, error) {
		sig := sorcer.Signature{
			ServiceType:  p.ServiceType,
			Selector:     p.Selector,
			ProviderName: p.ProviderName,
		}
		res, err := svc.Service(sorcer.NewTask(p.Name, sig, p.Context), nil)
		if err != nil {
			return nil, err
		}
		return wireTaskResult{Context: res.Context()}, nil
	})
	return ProxyDesc{Kind: ServicerKind, Locator: server.Addr(), Service: serviceName}
}

// ServicerClient is a sorcer.Servicer stub over srpc.
type ServicerClient struct{ stub }

// NewServicerClient materializes a stub from a servicer proxy descriptor;
// like an AccessorClient it connects on first call.
func NewServicerClient(desc ProxyDesc, timeout time.Duration) (*ServicerClient, error) {
	if desc.Kind != ServicerKind {
		return nil, fmt.Errorf("remote: descriptor kind %q is not a servicer", desc.Kind)
	}
	return &ServicerClient{stub{desc: desc, timeout: timeout}}, nil
}

// Service implements sorcer.Servicer for elementary exertions. The task's
// context travels both ways; the remote execution result is merged back
// into the local task.
func (s *ServicerClient) Service(ex sorcer.Exertion, tx *txn.Transaction) (sorcer.Exertion, error) {
	task, ok := ex.(*sorcer.Task)
	if !ok {
		return ex, fmt.Errorf("remote: only tasks cross process boundaries, got %T", ex)
	}
	if tx != nil {
		err := errors.New("remote: transactions are not supported across srpc")
		sorcer.FinishTask(task, nil, err)
		return task, err
	}
	sig := task.Signature()
	req := wireTask{
		Name:         task.Name(),
		ServiceType:  sig.ServiceType,
		Selector:     sig.Selector,
		ProviderName: sig.ProviderName,
		Context:      task.Context(),
	}
	var res wireTaskResult
	if err := s.call("servicer.service."+s.desc.Service, req, &res); err != nil {
		sorcer.FinishTask(task, nil, err)
		return task, err
	}
	ctx := task.Context()
	ctx.Merge(res.Context)
	sorcer.FinishTask(task, ctx, nil)
	return task, nil
}

var _ sorcer.Servicer = (*ServicerClient)(nil)
