// The library's generator under its historical name: Rng is the Philox
// counter substrate (stats/philox.h), seeded as Rng rng(seed).

#ifndef RANDRECON_STATS_RNG_H_
#define RANDRECON_STATS_RNG_H_

#include "stats/philox.h"

namespace randrecon {
namespace stats {

using Rng = Philox;

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_RNG_H_
