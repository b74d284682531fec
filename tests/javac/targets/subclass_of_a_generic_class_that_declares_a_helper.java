import android.app.Notification;
import android.media.AudioAttributes;
import android.net.Uri;
import java.util.Map;

class Util<T> {
    AudioAttributes makeAttrs(int u) {
        return null;
    }
}

class R extends Util<Map<String, Integer>> {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
