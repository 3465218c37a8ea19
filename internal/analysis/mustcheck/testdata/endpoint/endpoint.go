// Golden for mustcheck: Send/Flush/Drain/Close errors on transport.Endpoint
// values are never discarded.
package endpoint

import (
	"repro/internal/transport"
	"repro/internal/wire"
)

func handled(ep transport.Endpoint, m wire.Message) error {
	if err := ep.Send(m); err != nil {
		return err
	}
	err := ep.Close()
	return err
}

func discarded(ep transport.Endpoint, m wire.Message) {
	ep.Send(m)       // want `\(transport.Endpoint\).Send called but its error is discarded`
	ep.Drain(0)      // want `\(transport.Endpoint\).Drain called but its error is discarded`
	_ = ep.Close()   // want `\(transport.Endpoint\).Close called but assigning it to _ discards its error`
	defer ep.Close() // want `\(transport.Endpoint\).Close called but defer discards its error`
	go ep.Close()    // want `\(transport.Endpoint\).Close called but go discards its error`
}

func batching(be *transport.BatchingEndpoint) {
	be.Flush() // want `\(transport.BatchingEndpoint\).Flush called but its error is discarded`
}

// Recv returns a tuple, not an error — out of scope.
func recvOK(ep transport.Endpoint) {
	ep.Recv()
}

func suppressedClose(ep transport.Endpoint) {
	defer ep.Close() //lint:allow mustcheck shutdown path, error cannot be acted on
}
