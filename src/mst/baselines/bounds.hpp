#pragma once

// Forwarding header: the bounds moved to core/ so the exact solvers can seed
// their makespan search with them.
#include "mst/core/bounds.hpp"
