// Self-test fixture: a memo built on service::Lru. Naming the container
// -- in a comment like `std::list<Entry>`, inside a string, or as part
// of a longer identifier -- must not trip hand-rolled-lru.
// medcc-lint-expect: clean
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "service/lru.hpp"

namespace medcc::fixture {

class FrameMemo {
 public:
  void insert(std::string_view key, std::string frame) {
    const std::string note = "std::list lives in service/lru.hpp";
    (void)note;
    frames_.insert(std::string(key), Memo::hash(key),
                   std::make_shared<const std::string>(std::move(frame)));
  }

  [[nodiscard]] std::vector<std::string> playlist() const { return {}; }

 private:
  using Memo = service::Lru<std::string, std::shared_ptr<const std::string>>;
  Memo frames_{8};
};

}  // namespace medcc::fixture
