package core

import (
	"errors"
	"fmt"
)

// ErrCorruptMetadata means the container's checksummed metadata failed
// validation at Open/Recover. Open repairs what the redundant copy can, so
// it surfaces only wrapped in ErrUnrecoverable; region.Check is the
// report-before-repair path (crpmck).
var ErrCorruptMetadata = errors.New("core: corrupt container metadata")

// ErrUnrecoverable means corruption was detected AND could not be repaired
// from the redundant metadata copy: the container must not be trusted.
// errors.Is(err, ErrCorruptMetadata) also holds for unrecoverable errors.
var ErrUnrecoverable = fmt.Errorf("%w: unrecoverable", ErrCorruptMetadata)
