package relay

import "pasnet/internal/ot" // want

func Forward() { ot.Transfer() }
