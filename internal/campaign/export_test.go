package campaign

// EntryPath returns the file a store keeps k's entry in, for the store
// decode fuzz target.
func EntryPath(s *Store, k Key) string { return s.path(k.ID()) }
