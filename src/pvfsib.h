// Umbrella header: the public surface of the pvfs-ib-noncontig library.
//
// Most programs need only pvfs/cluster.h (the simulated cluster and its
// client API) and, for MPI-IO-level access, mpiio/mpio_file.h. The rest is
// exposed for tools and tests that drive individual substrates.
#pragma once

#include "common/config.h"      // ModelConfig: every calibration constant
#include "common/extent.h"      // (offset, length) algebra
#include "common/sim_time.h"    // Duration / TimePoint / bandwidth helpers
#include "common/stats.h"       // counter registry (Table 6-style profiles)
#include "core/ads.h"           // Active Data Sieving decision model
#include "core/listio.h"        // list I/O requests and striping partition
#include "core/ogr.h"           // Optimistic Group Registration
#include "core/transfer.h"      // noncontiguous transfer engines
#include "disk/local_fs.h"      // the I/O node's local file system
#include "ib/fabric.h"          // RDMA gather/scatter fabric
#include "ib/mr_cache.h"        // pin-down registration cache
#include "mpiio/mpio_file.h"    // MPI-IO with the four ROMIO methods
#include "pvfs/cluster.h"       // the whole simulated cluster
#include "sim/trace.h"          // protocol event tracing
#include "workloads/block_column.h"
#include "workloads/btio.h"
#include "workloads/subarray.h"
#include "workloads/tile_io.h"
