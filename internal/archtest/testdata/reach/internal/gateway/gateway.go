package gateway

import "pasnet/internal/relay"

func Serve() { relay.Forward() }
