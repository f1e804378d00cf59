// Heap allocation counts from the perfbench binary's counting operator new.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

int64_t AllocCount();        // all threads, since process start
int64_t ThreadAllocCount();  // the calling thread, since it started

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
