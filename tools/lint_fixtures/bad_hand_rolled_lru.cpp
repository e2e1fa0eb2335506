// Self-test fixture: library code memoizing through its own recency
// list and index instead of service::Lru.
// medcc-lint-expect: hand-rolled-lru
#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

namespace medcc::fixture {

class FrameMemo {
 public:
  void insert(std::string key, std::string frame) {
    order_.push_front(key);
    frames_[std::move(key)] = std::move(frame);
    if (order_.size() > 8) {
      frames_.erase(order_.back());
      order_.pop_back();
    }
  }

 private:
  std::list<std::string> order_;
  std::unordered_map<std::string, std::string> frames_;
};

}  // namespace medcc::fixture
