package nvm

// LogLines returns how many undo-log slots the current fence epoch has
// filled: the log's high-water, since only a fence or a crash empties it.
func (d *Device) LogLines() int { return int(d.logTop) }
